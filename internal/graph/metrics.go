package graph

// This file adds the graph metrics used by the analysis tooling beyond the
// paper's immediate needs: clustering coefficients and triangle counts
// (random graphs have vanishing clustering — a cheap sanity check that a
// generator really produces G(n,p) and not something small-world), degree
// histograms, and a plain-text serialisation for moving graphs between
// the CLI tools.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Triangles returns the number of triangles in g, counted once each, by
// intersecting sorted adjacency lists over ordered wedges.
func Triangles(g *Graph) int64 {
	var count int64
	for u := int32(0); int(u) < g.N(); u++ {
		nu := g.Neighbors(u)
		for _, v := range nu {
			if v <= u {
				continue
			}
			// Count common neighbours w with w > v to avoid double count.
			nv := g.Neighbors(v)
			count += int64(countCommonAbove(nu, nv, v))
		}
	}
	return count
}

// countCommonAbove counts values > floor present in both sorted slices.
func countCommonAbove(a, b []int32, floor int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] > floor {
				c++
			}
			i++
			j++
		}
	}
	return c
}

// GlobalClustering returns the global clustering coefficient
// 3·triangles / #wedges (paths of length two). For G(n,p) it concentrates
// near p; returns 0 for graphs without wedges.
func GlobalClustering(g *Graph) float64 {
	var wedges int64
	for v := int32(0); int(v) < g.N(); v++ {
		d := int64(g.Degree(v))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(Triangles(g)) / float64(wedges)
}

// WriteTo serialises g as a plain-text edge list: a header line
// "graph <n> <m>" followed by one "u v" line per edge (u < v). The format
// round-trips through ReadGraph.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "graph %d %d\n", g.N(), g.M())
	total += int64(n)
	if err != nil {
		return total, err
	}
	g.Edges(func(u, v int32) bool {
		n, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		total += int64(n)
		return err == nil
	})
	if err != nil {
		return total, err
	}
	return total, bw.Flush()
}

// ReadGraph parses the WriteTo format.
func ReadGraph(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty input")
	}
	var n, m int
	if _, err := fmt.Sscanf(sc.Text(), "graph %d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad header %q: %v", sc.Text(), err)
	}
	b := NewBuilder(n)
	b.Grow(m)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v', got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: line %d: endpoint out of range", line)
		}
		b.AddEdge(int32(u), int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := b.Build()
	if g.M() != m {
		return nil, fmt.Errorf("graph: header says %d edges, parsed %d (after dedup)", m, g.M())
	}
	return g, nil
}
