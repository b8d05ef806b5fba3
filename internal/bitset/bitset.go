// Package bitset implements a dense, fixed-capacity bit vector.
//
// The radio simulator and the graph generators track membership of vertex
// sets (informed nodes, transmitters this round, visited markers) over
// vertex ranges of up to a few million elements; a bitset keeps these sets
// at one bit per vertex and supports the bulk operations the simulator
// needs (clear-all, population count, iteration over set bits).
package bitset

import "math/bits"

// Set is a fixed-capacity bit vector over [0, Len()). The zero value is an
// empty set of capacity zero; use New to allocate capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns a set with capacity for n bits, all initially clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Fill sets every bit in [0, Len()).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim clears the bits beyond Len() in the last word so Count stays exact.
func (s *Set) trim() {
	if rem := uint(s.n) & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Union sets s = s ∪ t. Both sets must have the same capacity.
func (s *Set) Union(t *Set) {
	s.sameLen(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

func (s *Set) sameLen(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// ForEach calls fn for every set bit in increasing order. If fn returns
// false, iteration stops.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*64 + b) {
				return
			}
			w &= w - 1
		}
	}
}
