package sched

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTo serializes a schedule in a line-oriented text format:
//
//	schedule <algorithm> n <N> phases <P> ops <Ops>
//	phase <k>
//	<src> <dst> <bytes>
//	...
//
// Schedules are computed once and reused many times (§6), so being
// able to store the scheduling table next to the partition it was
// derived from is part of the runtime-system story.
func (s *Schedule) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := fmt.Fprintf(bw, "schedule %s n %d phases %d ops %d\n",
		s.Algorithm, s.N, len(s.Phases), s.Ops)
	written += int64(n)
	if err != nil {
		return written, err
	}
	for k, p := range s.Phases {
		n, err := fmt.Fprintf(bw, "phase %d\n", k)
		written += int64(n)
		if err != nil {
			return written, err
		}
		for i, j := range p.Send {
			if j < 0 {
				continue
			}
			n, err := fmt.Fprintf(bw, "%d %d %d\n", i, j, p.Bytes[i])
			written += int64(n)
			if err != nil {
				return written, err
			}
		}
	}
	return written, bw.Flush()
}
