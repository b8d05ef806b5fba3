package radio

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// decodeReceptionCase turns fuzz bytes into a graph of at most 200 nodes
// and a deduplicated transmitter list: data[0] picks n, data[1] the number
// of transmitter bytes that follow, and every remaining byte pair is an
// edge (endpoints mod n).
func decodeReceptionCase(data []byte) (*graph.Graph, []int32) {
	if len(data) < 2 {
		return graph.NewBuilder(0).Build(), nil
	}
	n := 1 + int(data[0])%200
	rest := data[2:]
	t := min(int(data[1]), len(rest))
	var tx []int32
	seen := make([]bool, n)
	for _, c := range rest[:t] {
		if v := int(c) % n; !seen[v] {
			seen[v] = true
			tx = append(tx, int32(v))
		}
	}
	b := graph.NewBuilder(n)
	for e := rest[t:]; len(e) >= 2; e = e[2:] {
		b.AddEdge(int32(int(e[0])%n), int32(int(e[1])%n))
	}
	return b.Build(), tx
}

// FuzzReception checks the reception kernel against a naive per-listener
// count: the heard list and its order (ascending on dense rounds,
// first-touch on sparse ones), the collision count, every node's class
// and every hearing listener's sole sender. Each case runs twice on one
// kernel, so planes left dirty by the first round fail the second.
func FuzzReception(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tx := decodeReceptionCase(data)
		n := g.N()
		transmitting := make([]bool, n)
		for _, v := range tx {
			transmitting[v] = true
		}
		hits := make([]int, n)
		for w := range hits {
			for _, v := range g.Neighbors(int32(w)) {
				if transmitting[v] {
					hits[w]++
				}
			}
		}
		visits := 0
		var order []int32 // first-touch order over the scatter
		touched := make([]bool, n)
		for _, v := range tx {
			for _, w := range g.Neighbors(v) {
				visits++
				if !touched[w] {
					touched[w] = true
					order = append(order, w)
				}
			}
		}
		if 2*visits >= n {
			order = order[:0]
			for w := range n {
				order = append(order, int32(w))
			}
		}
		var wantHeard []int32
		wantCollisions := 0
		for _, w := range order {
			switch {
			case transmitting[w]:
			case hits[w] == 1:
				wantHeard = append(wantHeard, w)
			case hits[w] >= 2:
				wantCollisions++
			}
		}

		rx := NewReception(g)
		for pass := 0; pass < 2; pass++ {
			rx.Scatter(tx)
			for w := range n {
				if got, want := rx.Class(int32(w)), min(hits[w], 2); got != want {
					t.Fatalf("pass %d: Class(%d) = %d, want %d (tx %v, %v)", pass, w, got, want, tx, g)
				}
			}
			heard, collisions := rx.Collect(tx, nil)
			if fmt.Sprint(heard) != fmt.Sprint(wantHeard) || collisions != wantCollisions {
				t.Fatalf("pass %d (dense=%v): heard %v with %d collisions, want %v with %d (tx %v, %v)",
					pass, 2*visits >= n, heard, collisions, wantHeard, wantCollisions, tx, g)
			}
			for _, w := range heard {
				v := rx.Sender(w, transmitting)
				if v < 0 || !transmitting[v] || !g.HasEdge(v, w) {
					t.Fatalf("pass %d: Sender(%d) = %d, not a transmitting neighbour", pass, w, v)
				}
			}
		}
	})
}
