package radio

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// TestScheduleWriteToGolden pins WriteTo's bytes, an empty round included.
func TestScheduleWriteToGolden(t *testing.T) {
	s := &Schedule{Sets: [][]int32{{0}, {3, 1, 4}, {}, {1592, 65}}}
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const want = "schedule 4\n0\n3 1 4\n\n1592 65\n"
	if buf.String() != want {
		t.Fatalf("WriteTo wrote %q, want %q", buf.String(), want)
	}
	if n != int64(len(want)) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(want))
	}
}

// TestScheduleRoundTrip decodes WriteTo's output of a random schedule
// line by line and requires every round back, empty rounds included.
func TestScheduleRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	s := &Schedule{}
	for r := 0; r < 25; r++ {
		s.Sets = append(s.Sets, rng.Sample(1000, rng.Intn(30)))
	}
	s.Sets = append(s.Sets, nil) // empty round
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "schedule "+strconv.Itoa(s.Len()) || len(lines) != s.Len()+1 {
		t.Fatalf("header %q over %d round lines, want %d rounds", lines[0], len(lines)-1, s.Len())
	}
	for r, set := range s.Sets {
		fields := strings.Fields(lines[r+1])
		if len(fields) != len(set) {
			t.Fatalf("round %d: %d ids written, want %d", r, len(fields), len(set))
		}
		for i, f := range fields {
			if f != strconv.Itoa(int(set[i])) {
				t.Fatalf("round %d element %d: wrote %s, want %d", r, i, f, set[i])
			}
		}
	}
}

// TestScheduleEmptyRoundTrip: a schedule of no rounds is the header alone.
func TestScheduleEmptyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := (&Schedule{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "schedule 0\n" {
		t.Fatalf("empty schedule written as %q", buf.String())
	}
}
