package comm

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
)

// Compressed is the paper's n x d matrix CCOM (§4.2): row i holds the
// destinations of Pi's outgoing messages packed into the first few
// columns, with the per-row pointer vector prt marking the last active
// column. The randomized schedulers scan CCOM instead of COM, cutting
// the per-permutation work from O(n^2) to O(dn).
//
// The compressing procedure also shuffles the active entries of each
// row: without the shuffle the destinations sit in ascending order and
// the first several phases suffer node contention among processors
// with small IDs (paper §4.2). The shuffle is what keeps the expected
// number of collisions bounded. NewCompressed applies it; the ablation
// benchmark disables it via NewCompressedOrdered.
type Compressed struct {
	n     int
	width int     // d: max send degree, the row capacity
	dest  []int   // row-major n*width; destination id or -1
	size  []int64 // row-major n*width; message bytes, parallel to dest
	prt   []int   // prt[i]: index of last active column in row i, -1 if empty
	// row scratch of PartitionRows and SortRowsBySize, reused so the
	// row-ordering passes of RS_NL and RS_NL_SZ allocate nothing when
	// a Compressed is reused (sched.Core keeps one per core).
	buf []entry
}

// entry is one active CCOM slot: a destination and its message size.
type entry struct {
	dest int
	size int64
}

// NewCompressed builds CCOM from COM, shuffling each row's active
// entries with rng as the paper prescribes. rng may not be nil.
func NewCompressed(m *Matrix, rng *rand.Rand) *Compressed {
	c := &Compressed{}
	c.Load(m, rng)
	return c
}

// NewCompressedOrdered builds CCOM without the randomizing shuffle,
// leaving each row's destinations in ascending order. It exists to
// reproduce the paper's observation that the unshuffled form causes
// early-phase node contention (ablation benchmark).
func NewCompressedOrdered(m *Matrix) *Compressed {
	c := &Compressed{}
	c.Load(m, nil)
	return c
}

// Load rebuilds the CCOM in place from m, reusing the row storage when
// its capacity allows — the steady-state path of a reusable scheduler
// core re-loads the same backing arrays for every request. A non-nil
// rng shuffles each row exactly as NewCompressed does (consuming the
// identical stream, so reuse cannot change a schedule); nil leaves
// rows in ascending destination order.
func (c *Compressed) Load(m *Matrix, rng *rand.Rand) {
	n := m.N()
	width := 0
	for i := 0; i < n; i++ {
		if deg := m.SendDegree(i); deg > width {
			width = deg
		}
	}
	if width == 0 {
		width = 1 // keep row storage non-degenerate for empty matrices
	}
	c.n, c.width = n, width
	need := n * width
	if cap(c.dest) < need {
		c.dest = make([]int, need)
		c.size = make([]int64, need)
	} else {
		c.dest = c.dest[:need]
		c.size = c.size[:need]
	}
	if cap(c.prt) < n {
		c.prt = make([]int, n)
	} else {
		c.prt = c.prt[:n]
	}
	for i := range c.dest {
		c.dest[i] = -1
		c.size[i] = 0
	}
	for i := 0; i < n; i++ {
		col := 0
		for j := 0; j < n; j++ {
			if b := m.At(i, j); b > 0 {
				c.dest[i*width+col] = j
				c.size[i*width+col] = b
				col++
			}
		}
		c.prt[i] = col - 1
	}
	if rng == nil {
		return
	}
	for i := 0; i < n; i++ {
		row := c.dest[i*width : i*width+c.prt[i]+1]
		sz := c.size[i*width : i*width+c.prt[i]+1]
		rng.Shuffle(len(row), func(a, b int) {
			row[a], row[b] = row[b], row[a]
			sz[a], sz[b] = sz[b], sz[a]
		})
	}
}

// N returns the number of processors.
func (c *Compressed) N() int { return c.n }

// Width returns d, the row capacity (maximum send degree at build time).
func (c *Compressed) Width() int { return c.width }

// Remaining returns the number of unscheduled messages in row i.
func (c *Compressed) Remaining(i int) int { return c.prt[i] + 1 }

// Empty reports whether every row has been fully drained.
func (c *Compressed) Empty() bool {
	for i := 0; i < c.n; i++ {
		if c.prt[i] >= 0 {
			return false
		}
	}
	return true
}

// TotalRemaining returns the number of unscheduled messages overall.
func (c *Compressed) TotalRemaining() int {
	total := 0
	for i := 0; i < c.n; i++ {
		total += c.prt[i] + 1
	}
	return total
}

// At returns the destination in row i, column z, or -1 if inactive.
func (c *Compressed) At(i, z int) int {
	if z > c.prt[i] {
		return -1
	}
	return c.dest[i*c.width+z]
}

// SizeAt returns the message size in row i, column z.
func (c *Compressed) SizeAt(i, z int) int64 {
	if z > c.prt[i] {
		return 0
	}
	return c.size[i*c.width+z]
}

// Remove deletes the entry at (i, z) exactly as the paper's inner loop
// does: the last active entry of the row is moved into slot z and prt
// is decremented. It returns the removed destination and size.
func (c *Compressed) Remove(i, z int) (dest int, bytes int64) {
	if z > c.prt[i] || z < 0 {
		panic(fmt.Sprintf("comm: Remove(%d,%d) beyond prt %d", i, z, c.prt[i]))
	}
	base := i * c.width
	dest = c.dest[base+z]
	bytes = c.size[base+z]
	last := c.prt[i]
	c.dest[base+z] = c.dest[base+last]
	c.size[base+z] = c.size[base+last]
	c.dest[base+last] = -1
	c.size[base+last] = 0
	c.prt[i] = last - 1
	return dest, bytes
}

// PartitionRows stable-partitions the active entries of every row so
// that entries satisfying pred(row, dest) come first, preserving the
// relative order within each group. The RS_NL scheduler uses it to
// move pairwise-exchange candidates to the front of each row after the
// randomizing shuffle.
func (c *Compressed) PartitionRows(pred func(src, dst int) bool) {
	for i := 0; i < c.n; i++ {
		z := i * c.width
		row := c.row(i)
		for _, first := range [2]bool{true, false} {
			for _, e := range row {
				if pred(i, e.dest) == first {
					c.dest[z], c.size[z] = e.dest, e.size
					z++
				}
			}
		}
	}
}

// SortRowsBySize stable-sorts the active entries of every row by
// descending message size, so entries of equal size keep their
// relative order. The size-aware RS_NL uses it after the randomizing
// shuffle.
func (c *Compressed) SortRowsBySize() {
	for i := 0; i < c.n; i++ {
		row := c.row(i)
		slices.SortStableFunc(row, func(a, b entry) int { return cmp.Compare(b.size, a.size) })
		for z, e := range row {
			c.dest[i*c.width+z], c.size[i*c.width+z] = e.dest, e.size
		}
	}
}

// row copies the active entries of row i into the row scratch, which
// it sizes to the row capacity on first use.
func (c *Compressed) row(i int) []entry {
	if cap(c.buf) < c.width {
		c.buf = make([]entry, 0, c.width)
	}
	lo, hi := i*c.width, i*c.width+c.prt[i]+1
	buf := c.buf[:0]
	for z := lo; z < hi; z++ {
		buf = append(buf, entry{c.dest[z], c.size[z]})
	}
	c.buf = buf
	return buf
}

// RowDests returns the active destinations of row i (a copy, for tests
// and trace output).
func (c *Compressed) RowDests(i int) []int {
	out := make([]int, 0, c.prt[i]+1)
	for z := 0; z <= c.prt[i]; z++ {
		out = append(out, c.dest[i*c.width+z])
	}
	return out
}
