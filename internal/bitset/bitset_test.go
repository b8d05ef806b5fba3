package bitset

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSetTestClear(t *testing.T) {
	s := New(200)
	for i := 0; i < 200; i += 3 {
		s.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		if s.Test(i) != want {
			t.Fatalf("bit %d: got %v want %v", i, s.Test(i), want)
		}
	}
}

func TestCount(t *testing.T) {
	s := New(130)
	if s.Count() != 0 {
		t.Fatal("fresh set has nonzero count")
	}
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		s.Set(i)
	}
	if got := s.Count(); got != len(idx) {
		t.Fatalf("Count = %d, want %d", got, len(idx))
	}
	s.Set(0) // setting twice must not double count
	if got := s.Count(); got != len(idx) {
		t.Fatalf("Count after re-set = %d, want %d", got, len(idx))
	}
}

func TestFillRespectsLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if got := s.Count(); got != n {
			t.Fatalf("Fill on len %d gives count %d", n, got)
		}
	}
}

func TestReset(t *testing.T) {
	s := New(500)
	for i := 0; i < 500; i += 7 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestSetOperations(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i) // evens
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i) // multiples of 3
	}

	u := a.Clone()
	u.Union(b)
	for i := 0; i < 100; i++ {
		if u.Test(i) != (i%2 == 0 || i%3 == 0) {
			t.Fatalf("union wrong at %d", i)
		}
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Union with mismatched capacity did not panic")
		}
	}()
	New(10).Union(New(11))
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){
		func() { s.Set(10) },
		func() { s.Set(-1) },
		func() { s.Test(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestForEachOrderAndStop(t *testing.T) {
	s := New(300)
	want := []int{5, 64, 65, 128, 250}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	s.ForEach(func(i int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("ForEach early stop visited %d", count)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(1)
	b := a.Clone()
	b.Set(2)
	if a.Test(2) {
		t.Fatal("Clone shares storage with original")
	}
	if !b.Test(1) {
		t.Fatal("Clone lost original bits")
	}
}

// Property: Count equals the number of distinct indices set, for random
// index multisets.
func TestCountMatchesDistinctProperty(t *testing.T) {
	rng := xrand.New(5)
	f := func(raw []uint16) bool {
		const n = 1 << 16
		s := New(n)
		distinct := make(map[uint16]bool)
		for _, r := range raw {
			s.Set(int(r))
			distinct[r] = true
		}
		return s.Count() == len(distinct)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ForEach enumeration matches Test over random sets.
func TestForEachMatchesTestProperty(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(500)
		s := New(n)
		ref := make([]bool, n)
		for i := 0; i < n/2; i++ {
			j := rng.Intn(n)
			s.Set(j)
			ref[j] = true
		}
		got := make([]bool, n)
		s.ForEach(func(i int) bool {
			got[i] = true
			return true
		})
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func BenchmarkSetAndCount(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < b.N; i++ {
		s.Set(i & (1<<20 - 1))
		if i&0xffff == 0 {
			_ = s.Count()
		}
	}
}

func BenchmarkReset(b *testing.B) {
	s := New(1 << 20)
	s.Fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
	}
}
