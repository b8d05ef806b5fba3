package radio

// Schedule serialisation: a plain-text format for schedules built by one
// tool (cmd/radiosim -save-schedule) and read by people or other
// programs. The package writes it and has no reader.
//
// Format:
//
//	schedule <rounds>
//	<v1> <v2> ...      one line per round, vertex ids in base 10 separated
//	                   by single spaces; an empty round is an empty line
//
// The header's count equals the number of round lines that follow.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteTo serialises the schedule.
func (s *Schedule) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "schedule %d\n", len(s.Sets))
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, set := range s.Sets {
		for i, v := range set {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return total, err
				}
				total++
			}
			n, err := bw.WriteString(strconv.Itoa(int(v)))
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return total, err
		}
		total++
	}
	return total, bw.Flush()
}
