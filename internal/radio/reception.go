package radio

import (
	"math/bits"

	"repro/internal/graph"
)

// Reception is the model's reception step, the one place outside the
// oracle that applies its rule: a listener receives iff exactly one of its
// neighbours transmits, and a transmitter does not listen. The engine's
// Round and RoundWithFeedback, gossip and k-broadcast all run it; each
// caller keeps only what it does with a clean reception.
//
// A round is Scatter(tx) followed by Collect(tx, heard). Between the two,
// Class reads any node's hit count. Reception draws no randomness and is
// not safe for concurrent use.
type Reception struct {
	g *graph.Graph
	// once and twice are carry-save bitplanes over the nodes (bit w&63 of
	// word w>>6): once marks "at least one transmitting neighbour this
	// round", twice "at least two". Reception only distinguishes 0 / 1 /
	// >=2 hits, so two bits per node replace a counter; this is the lane
	// engine's once/twice rule at width 1.
	once, twice []uint64
	touched     []int32 // first-touch order of nodes hit this round (sparse rounds)
	dense       bool
}

// NewReception returns a reception kernel for g with clean planes.
func NewReception(g *graph.Graph) *Reception {
	w := (g.N() + 63) / 64
	return &Reception{g: g, once: make([]uint64, w), twice: make([]uint64, w)}
}

// Scatter records one round's transmissions. tx must be deduplicated. The
// exact neighbour-visit count picks the classification strategy: dense
// rounds (visits >= n/2) scatter without bookkeeping and Collect walks the
// planes word by word; sparse rounds keep the O(visits) touched list so
// tiny rounds never pay an O(n) pass.
func (r *Reception) Scatter(tx []int32) {
	g := r.g
	visits := 0
	for _, v := range tx {
		visits += len(g.Neighbors(v))
	}
	r.dense = 2*visits >= g.N()
	once := r.once
	twice := r.twice[:len(once)] // equal lengths: one bounds check per visit
	if r.dense {
		for _, v := range tx {
			for _, w := range g.Neighbors(v) {
				k, b := w>>6, uint64(1)<<(w&63)
				o := once[k]
				twice[k] |= o & b
				once[k] = o | b
			}
		}
		return
	}
	touched := r.touched
	if touched == nil {
		// A sparse round has visits < n/2 and touches at most one new
		// node per visit, so one allocation serves every round.
		touched = make([]int32, 0, g.N()/2)
	}
	for _, v := range tx {
		for _, w := range g.Neighbors(v) {
			k, b := w>>6, uint64(1)<<(w&63)
			o := once[k]
			if o&b == 0 {
				touched = append(touched, w)
			}
			twice[k] |= o & b
			once[k] = o | b
		}
	}
	r.touched = touched
}

// Class returns how many of w's neighbours transmitted in the scattered
// round, saturated at 2. It is valid between Scatter and Collect.
func (r *Reception) Class(w int32) int {
	k, s := w>>6, w&63
	return int(r.once[k]>>s&1 + r.twice[k]>>s&1)
}

// Collect finishes the round scattered from tx: transmitters do not
// listen, every listener with exactly one transmitting neighbour is
// appended to heard (ascending on dense rounds, first-touch on sparse
// ones), and the planes are left clean for the next round. It returns the
// extended heard and the number of listeners that heard a collision.
func (r *Reception) Collect(tx, heard []int32) ([]int32, int) {
	once, twice := r.once, r.twice
	for _, v := range tx {
		k, b := v>>6, uint64(1)<<(v&63)
		once[k] &^= b
		twice[k] &^= b
	}
	collisions := 0
	if r.dense {
		twice = twice[:len(once)]
		for k, o := range once {
			if o == 0 {
				continue
			}
			t := twice[k]
			once[k], twice[k] = 0, 0
			collisions += bits.OnesCount64(t)
			for succ := o &^ t; succ != 0; succ &= succ - 1 {
				heard = append(heard, int32(k<<6|bits.TrailingZeros64(succ)))
			}
		}
		return heard, collisions
	}
	for _, w := range r.touched {
		switch r.Class(w) {
		case 1:
			heard = append(heard, w)
		case 2:
			collisions++
		}
	}
	for _, w := range r.touched {
		once[w>>6], twice[w>>6] = 0, 0
	}
	r.touched = r.touched[:0]
	return heard, collisions
}

// Sender returns the sole transmitting neighbour of w, a listener that
// heard exactly one transmitter, given the caller's transmit marks. It
// scans w's adjacency, so a caller that needs the sender of a reception
// pays per hearing listener instead of per neighbour visit.
func (r *Reception) Sender(w int32, transmitting []bool) int32 {
	for _, v := range r.g.Neighbors(w) {
		if transmitting[v] {
			return v
		}
	}
	return -1
}
