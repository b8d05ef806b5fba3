package graph

import "math/bits"

// This file contains traversal primitives: breadth-first search, BFS layer
// decomposition (the sets T_i(u) of the paper), connectivity tests and
// eccentricity/diameter estimation.

// Unreachable is the distance value assigned by BFS to vertices not
// reachable from the source.
const Unreachable int32 = -1

// Distances runs a breadth-first search from src and returns the distance
// of each vertex (Unreachable for vertices in other components). The
// search is the direction-optimizing kernel traverse, so on G(n, p) its
// cost is far below one pass over every arc, and it stays O(n + m) on any
// graph.
func Distances(g *Graph, src int32) []int32 {
	var t Traversal
	return t.Distances(g, src, nil)
}

// Traversal holds the buffers of the breadth-first search kernel, so that
// a caller searching graph after graph (gen.Scratch's connectivity test,
// core.Scratch's distance search) reuses them: once they have grown to
// the largest graph, a search allocates nothing. The zero value is ready.
// A Traversal is not safe for concurrent use.
type Traversal struct {
	visited, front []uint64
	order          []int32
}

// Distances is the package-level Distances on t's reused buffers, written
// into dst's storage when its capacity holds g.N() entries (a nil dst is
// the fresh case: a new, exactly sized array).
func (t *Traversal) Distances(g *Graph, src int32, dst []int32) []int32 {
	dist := resize(dst, g.N(), 0)
	for i := range dist {
		dist[i] = Unreachable
	}
	t.traverse(g, src, dist)
	return dist
}

// bottomUpRatio is the α of the direction switch: a level runs bottom-up
// once α times the frontier's size covers the unvisited vertices plus
// every arc not yet expanded, a bound on what a bottom-up level can
// examine. On G(n, d/n) with d below about α that holds at the level
// that takes in most of the graph.
const bottomUpRatio = 64

// traverse is the one breadth-first search behind Distances and
// IsConnected: a level-synchronous, direction-optimizing BFS (Beamer,
// Asanović and Patterson, SC 2012). It returns the number of vertices
// reached from src and the work done: arcs examined plus vertex checks
// and marks. If dist is non-nil (pre-filled with Unreachable), it records
// each reached vertex's level.
//
// Levels run top-down, expanding every arc of the frontier F, until
// α|F| >= |U| + arcs(F ∪ U) for the unvisited set U. Then they run
// bottom-up: every vertex of U scans its own row and stops at its first
// neighbour in a frontier bitset. Lemma 3 is why this pays on G(n, p): BFS
// layers grow like d^i, so within about log n / log d levels one layer
// holds most of the vertices, and an unvisited vertex then finds a
// frontier neighbour within a few probes, where top-down that layer
// would expand all of its arcs.
//
// The worst case stays O(n + m). U is a compacted list, partitioned in
// place as vertices are found, so a bottom-up level costs at most |U| +
// arcs(U), which the switch rule bounds by α|F|; summed over levels that
// is αn. Bottom-up runs as one contiguous stretch of levels: once the
// rule fails again the search finishes top-down, so U is listed (one
// pass over the visited bitset) at most once, and path-like or
// adversarially numbered graphs never pay O(n) per level. The rule needs
// no degree lookups for found vertices: the unexpanded arcs drop by each
// expanded row and, after a bottom-up level, are the rows U holds.
//
// Outputs are independent of the direction taken: every reached vertex
// gets its exact level either way, and only the order within a level,
// which no caller sees, differs.
func (t *Traversal) traverse(g *Graph, src int32, dist []int32) (reached, work int) {
	n := g.N()
	b := bfs{g: g, visited: resize(t.visited, (n+63)>>6, 0), front: t.front, order: resize(t.order, n+1, 0),
		dist: dist, hi: 1, level: 1, unexpanded: len(g.adj)}
	clear(b.visited)
	b.order[0] = src
	b.visited[src>>6] |= 1 << (src & 63)
	if dist != nil {
		dist[src] = 0
	}
	if b.topDown(true) {
		b.listUnvisited()
		for b.lo < b.hi && b.hi < n && b.wantBottomUp() {
			b.bottomUp()
		}
		b.topDown(false)
	}
	t.visited, t.front, t.order = b.visited, b.front, b.order
	return b.hi, b.work
}

// bfs is traverse's state. order[:hi] holds the reached vertices level by
// level, the frontier being order[lo:hi], whose neighbours are at
// distance level. During the bottom-up stretch order[hi:n] is U. order
// has one slot past n, the target of top-down's unconditional store.
type bfs struct {
	g          *Graph
	visited    []uint64
	front      []uint64 // frontier bitset, bottom-up levels only
	order      []int32
	dist       []int32
	lo, hi     int
	level      int32
	unexpanded int // arcs out of the frontier and U
	work       int
}

// wantBottomUp is the switch rule α|F| >= |U| + arcs(F ∪ U).
func (b *bfs) wantBottomUp() bool {
	return bottomUpRatio*(b.hi-b.lo) >= len(b.order)-1-b.hi+b.unexpanded
}

// topDown runs levels top-down until every vertex is reached or no
// frontier is left. With untilBottomUp it stops early, reporting true, at
// the first level where the switch rule holds.
func (b *bfs) topDown(untilBottomUp bool) bool {
	off, adj, visited, order := b.g.offsets, b.g.adj, b.visited, b.order
	lo, hi, unexpanded := b.lo, b.hi, b.unexpanded
	n := len(order) - 1
	stop := false
	for lo < hi && hi < n {
		if untilBottomUp && bottomUpRatio*(hi-lo) >= n-hi+unexpanded {
			stop = true
			break
		}
		next := hi
		for _, v := range order[lo:hi] {
			row := adj[off[v]:off[v+1]]
			unexpanded -= len(row)
			// Branch-free: store w, and keep it only if it was unvisited.
			// On G(n, p) the visited test is a coin flip per arc, too
			// random to predict.
			for _, w := range row {
				k, s := w>>6, w&63
				x := visited[k]
				visited[k] = x | 1<<s
				order[next] = w
				next += int(^x >> s & 1)
			}
		}
		b.record(hi, next)
		lo, hi = hi, next
	}
	b.work += b.unexpanded - unexpanded
	b.lo, b.hi, b.unexpanded = lo, hi, unexpanded
	return stop
}

// listUnvisited writes U, in ascending order, to order[hi:n].
func (b *bfs) listUnvisited() {
	n, order := len(b.order)-1, b.order
	u := b.hi
	for k, vis := range b.visited {
		for free := ^vis; free != 0; free &= free - 1 {
			v := k<<6 | bits.TrailingZeros64(free)
			if v >= n {
				break
			}
			order[u] = int32(v)
			u++
		}
	}
	// A reused frontier bitset is clean: every bottom-up level clears the
	// marks it set.
	b.front = resize(b.front, len(b.visited), 0)
	b.work += n - b.hi
}

// bottomUp runs one level bottom-up: every vertex of U scans its row up
// to its first neighbour in the frontier, and the vertices that find one
// move to the front of U, where they become the next frontier.
func (b *bfs) bottomUp() {
	off, adj, front, visited, order := b.g.offsets, b.g.adj, b.front, b.visited, b.order
	lo, hi, n := b.lo, b.hi, len(b.order)-1
	for _, v := range order[lo:hi] {
		front[v>>6] |= 1 << (v & 63)
	}
	work := 2 * (hi - lo) // marking the frontier and clearing it after
	next, arcs := hi, 0
	for j := hi; j < n; j++ {
		u := order[j]
		row := adj[off[u]:off[u+1]]
		arcs += len(row)
		i := 0
		for i < len(row) && front[row[i]>>6]&(1<<(row[i]&63)) == 0 {
			i++
		}
		if i == len(row) {
			work += 1 + i
			continue
		}
		work += 2 + i
		visited[u>>6] |= 1 << (u & 63)
		order[j], order[next] = order[next], u
		next++
	}
	for _, v := range order[lo:hi] {
		front[v>>6] &^= 1 << (v & 63)
	}
	b.record(hi, next)
	b.work += work
	b.lo, b.hi, b.unexpanded = hi, next, arcs
}

// record closes a level whose found vertices are order[hi:next]: it
// writes their distance and moves on to the next level.
func (b *bfs) record(hi, next int) {
	if b.dist != nil {
		for _, w := range b.order[hi:next] {
			b.dist[w] = b.level
		}
	}
	b.level++
}

// Layers returns the BFS layers T_0(u) = {u}, T_1(u), ..., where T_i(u) is
// the set of vertices at distance exactly i from u, as in Lemma 3 of the
// paper. Unreachable vertices appear in no layer. Each layer slice is
// sorted by vertex id.
func Layers(g *Graph, src int32) [][]int32 {
	return LayersFromDist(Distances(g, src))
}

// LayersFromDist buckets a BFS distance array (as returned by Distances)
// into the layers Layers returns, for callers that already hold the
// distances. All layers share one backing array; each is capped at its
// own length, so appending to one cannot overwrite the next.
func LayersFromDist(dist []int32) [][]int32 {
	maxD := int32(0)
	for _, d := range dist {
		if d > maxD {
			maxD = d
		}
	}
	starts := make([]int, maxD+2)
	for _, d := range dist {
		if d >= 0 {
			starts[d+1]++
		}
	}
	for i := 1; i < len(starts); i++ {
		starts[i] += starts[i-1]
	}
	all := make([]int32, starts[maxD+1])
	layers := make([][]int32, maxD+1)
	for i := range layers {
		layers[i] = all[starts[i]:starts[i]:starts[i+1]]
	}
	for v, d := range dist {
		if d >= 0 {
			layers[d] = append(layers[d], int32(v))
		}
	}
	return layers
}

// IsConnected reports whether g is connected. The empty graph is considered
// connected; a one-vertex graph is connected. It runs the traversal kernel
// from vertex 0 without recording distances: a visited bitset, the level
// order and, once the search turns bottom-up, a frontier bitset.
func IsConnected(g *Graph) bool {
	var t Traversal
	return t.IsConnected(g)
}

// IsConnected is the package-level IsConnected on t's reused buffers.
func (t *Traversal) IsConnected(g *Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	reached, _ := t.traverse(g, 0, nil)
	return reached == n
}

// Components returns the connected components of g, ordered by their
// smallest vertex. Each component lists its members in BFS discovery
// order from that smallest vertex (neighbours in adjacency order), not
// sorted by id: the edges {0,2} and {2,1} give [[0 2 1]].
func Components(g *Graph) [][]int32 {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int32
	queue := make([]int32, 0, n)
	for s := int32(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		members := []int32{s}
		comp[s] = id
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = id
					members = append(members, w)
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, members)
	}
	return comps
}

// LargestComponent returns the vertex set of the largest connected
// component (ties broken by smallest vertex id), in the BFS discovery
// order of Components: element 0 is the component's smallest vertex.
func LargestComponent(g *Graph) []int32 {
	var best []int32
	for _, c := range Components(g) {
		if len(c) > len(best) {
			best = c
		}
	}
	return best
}

// Eccentricity returns the maximum BFS distance from src to any reachable
// vertex. Lower-bounds the broadcast time from src in any radio model.
func Eccentricity(g *Graph, src int32) int {
	dist := Distances(g, src)
	ecc := int32(0)
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Diameter returns the exact diameter of a connected graph by running a BFS
// from every vertex — O(n·m); use DiameterLower for large graphs. It
// returns -1 if the graph is disconnected or empty.
func Diameter(g *Graph) int {
	if g.N() == 0 || !IsConnected(g) {
		return -1
	}
	diam := 0
	for v := int32(0); int(v) < g.N(); v++ {
		if e := Eccentricity(g, v); e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterLower returns a lower bound on the diameter using the standard
// double-sweep heuristic (BFS from src, then BFS from the farthest vertex
// found). On random graphs the bound is almost always tight.
func DiameterLower(g *Graph, src int32) int {
	if g.N() == 0 {
		return -1
	}
	dist := Distances(g, src)
	far, fd := src, int32(0)
	for v, d := range dist {
		if d > fd {
			fd = d
			far = int32(v)
		}
	}
	return Eccentricity(g, far)
}

// JointNeighborCounts returns, for each vertex in set, the number of other
// vertices of set with which it shares at least one common neighbour, and
// the number with which it shares at least two. This measures the "almost
// tree" property of Lemma 3: within a BFS layer, very few pairs should
// share a common neighbour in the next layer.
//
// restrict, if non-nil, limits the common neighbours considered to vertices
// for which restrict(w) is true (e.g. only the next BFS layer).
func JointNeighborCounts(g *Graph, set []int32, restrict func(int32) bool) (shareOne, shareTwo []int) {
	inSet := make(map[int32]int32, len(set))
	for i, v := range set {
		inSet[v] = int32(i)
	}
	// For each vertex of set, count common-neighbour multiplicity against
	// every other member by scanning two-hop paths through allowed middles.
	pairCount := make(map[[2]int32]int32)
	for i, v := range set {
		for _, w := range g.Neighbors(v) {
			if restrict != nil && !restrict(w) {
				continue
			}
			for _, x := range g.Neighbors(w) {
				j, ok := inSet[x]
				if !ok || j <= int32(i) {
					continue
				}
				pairCount[[2]int32{int32(i), j}]++
			}
		}
	}
	shareOne = make([]int, len(set))
	shareTwo = make([]int, len(set))
	for pair, c := range pairCount {
		shareOne[pair[0]]++
		shareOne[pair[1]]++
		if c >= 2 {
			shareTwo[pair[0]]++
			shareTwo[pair[1]]++
		}
	}
	return shareOne, shareTwo
}

// CountEdgesWithin returns the number of edges of g with both endpoints in
// set.
func CountEdgesWithin(g *Graph, set []int32) int {
	in := make(map[int32]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	count := 0
	for _, v := range set {
		for _, w := range g.Neighbors(v) {
			if w > v && in[w] {
				count++
			}
		}
	}
	return count
}
