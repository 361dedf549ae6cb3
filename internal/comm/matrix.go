// Package comm defines the communication matrix COM that drives all
// scheduling algorithms in this repository, the compressed n x d form
// CCOM used by the randomized schedulers, and generators for the
// workloads the paper evaluates (random all-to-many patterns of a
// given density) plus the irregular-application patterns that motivate
// them (mesh halo exchange, sparse mat-vec).
//
// COM(i,j) = m > 0 means processor Pi must send a message of m bytes
// to Pj; COM(i,j) = 0 means no message (paper §2). Row i is Pi's
// sending vector, column i its receiving vector.
package comm

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Matrix is the n x n communication matrix COM. The zero value is not
// usable; construct with New or the generator functions.
type Matrix struct {
	n    int
	data []int64 // row-major n*n; data[i*n+j] = bytes Pi sends Pj
	// perm is DRegularInto's permutation scratch, kept with the matrix
	// so regenerating into a reused matrix allocates nothing.
	perm []int
}

// New returns an n x n all-zero communication matrix. n must be
// positive.
func New(n int) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: matrix size %d must be positive", n)
	}
	return &Matrix{n: n, data: make([]int64, n*n)}, nil
}

// MustNew is New for known-good sizes; it panics on error.
func MustNew(n int) *Matrix {
	m, err := New(n)
	if err != nil {
		panic(err)
	}
	return m
}

// N returns the number of processors.
func (m *Matrix) N() int { return m.n }

// At returns COM(i, j), the number of bytes Pi sends to Pj.
func (m *Matrix) At(i, j int) int64 { return m.data[i*m.n+j] }

// Set assigns COM(i, j) = bytes. Negative byte counts panic: message
// sizes come from generators and loaders that validate input, so a
// negative value is a programming error, not bad data.
func (m *Matrix) Set(i, j int, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("comm: negative message size %d for COM(%d,%d)", bytes, i, j))
	}
	m.data[i*m.n+j] = bytes
}

// Add accumulates bytes onto COM(i, j); used by pattern builders that
// aggregate per-element traffic into per-processor messages.
func (m *Matrix) Add(i, j int, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("comm: negative message size %d for COM(%d,%d)", bytes, i, j))
	}
	m.data[i*m.n+j] += bytes
}

// Zero clears every entry in place, keeping the storage. It is the
// reuse primitive behind the XxxInto pattern generators: a campaign
// worker holds one matrix per machine size and regenerates workloads
// into it instead of allocating a fresh n^2 buffer per cell.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := MustNew(m.n)
	copy(c.data, m.data)
	return c
}

// Equal reports whether the two matrices are identical.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i, v := range m.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// SendDegree returns the number of distinct destinations of Pi (the
// number of nonzero entries in row i).
func (m *Matrix) SendDegree(i int) int {
	deg := 0
	for j := 0; j < m.n; j++ {
		if m.At(i, j) > 0 {
			deg++
		}
	}
	return deg
}

// RecvDegree returns the number of distinct sources of Pi (the number
// of nonzero entries in column i).
func (m *Matrix) RecvDegree(i int) int {
	deg := 0
	for j := 0; j < m.n; j++ {
		if m.At(j, i) > 0 {
			deg++
		}
	}
	return deg
}

// Density returns the paper's density d: the maximum over processors
// of messages sent or received. At least Density partial permutations
// are required to deliver all messages (paper §2.1, assumption 3).
func (m *Matrix) Density() int {
	d := 0
	for i := 0; i < m.n; i++ {
		if s := m.SendDegree(i); s > d {
			d = s
		}
		if r := m.RecvDegree(i); r > d {
			d = r
		}
	}
	return d
}

// MessageCount returns the total number of messages (nonzero entries).
func (m *Matrix) MessageCount() int {
	count := 0
	for _, v := range m.data {
		if v > 0 {
			count++
		}
	}
	return count
}

// TotalBytes returns the sum of all message sizes.
func (m *Matrix) TotalBytes() int64 {
	var total int64
	for _, v := range m.data {
		total += v
	}
	return total
}

// MaxMessageBytes returns the largest single message size, or 0 for an
// empty matrix.
func (m *Matrix) MaxMessageBytes() int64 {
	var mx int64
	for _, v := range m.data {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Uniform reports whether every nonzero message has the same size, and
// that size (0 if there are no messages). The paper's experiments all
// use uniform sizes; the non-uniform schedulers relax this.
func (m *Matrix) Uniform() (bytes int64, uniform bool) {
	for _, v := range m.data {
		if v == 0 {
			continue
		}
		if bytes == 0 {
			bytes = v
		} else if v != bytes {
			return 0, false
		}
	}
	return bytes, true
}

// Symmetric reports whether COM(i,j) > 0 iff COM(j,i) > 0 for all
// pairs (the pattern, not necessarily the sizes, is symmetric).
// Symmetric patterns let LP and RS_NL pair every transfer into a
// bidirectional exchange.
func (m *Matrix) Symmetric() bool {
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if (m.At(i, j) > 0) != (m.At(j, i) > 0) {
				return false
			}
		}
	}
	return true
}

// HasSelfMessages reports whether any diagonal entry is nonzero. Self
// messages need no network traffic; schedulers reject them so that
// every scheduled transfer maps to a real circuit.
func (m *Matrix) HasSelfMessages() bool {
	for i := 0; i < m.n; i++ {
		if m.At(i, i) > 0 {
			return true
		}
	}
	return false
}

// Message is one entry of the communication matrix.
type Message struct {
	Src   int
	Dst   int
	Bytes int64
}

// Messages returns all nonzero entries in row-major order.
func (m *Matrix) Messages() []Message {
	return m.AppendMessages(make([]Message, 0, m.MessageCount()))
}

// AppendMessages appends all nonzero entries in row-major order to buf
// and returns the extended slice — the allocation-free form of
// Messages for callers that reuse a scratch buffer.
func (m *Matrix) AppendMessages(buf []Message) []Message {
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if b := m.At(i, j); b > 0 {
				buf = append(buf, Message{Src: i, Dst: j, Bytes: b})
			}
		}
	}
	return buf
}

// SendVector returns row i as (destination, bytes) pairs — the send_i
// vector of the paper.
func (m *Matrix) SendVector(i int) []Message {
	var msgs []Message
	for j := 0; j < m.n; j++ {
		if b := m.At(i, j); b > 0 {
			msgs = append(msgs, Message{Src: i, Dst: j, Bytes: b})
		}
	}
	return msgs
}

// RecvVector returns column i as (source, bytes) pairs — the recv_i
// vector of the paper.
func (m *Matrix) RecvVector(i int) []Message {
	var msgs []Message
	for j := 0; j < m.n; j++ {
		if b := m.At(j, i); b > 0 {
			msgs = append(msgs, Message{Src: j, Dst: i, Bytes: b})
		}
	}
	return msgs
}

// Validate checks structural invariants: square storage, non-negative
// entries, no self messages. Generators always produce valid matrices;
// Validate guards externally loaded ones.
func (m *Matrix) Validate() error {
	if m.n <= 0 || len(m.data) != m.n*m.n {
		return fmt.Errorf("comm: malformed matrix storage (n=%d, len=%d)", m.n, len(m.data))
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if m.At(i, j) < 0 {
				return fmt.Errorf("comm: negative entry COM(%d,%d) = %d", i, j, m.At(i, j))
			}
		}
	}
	if m.HasSelfMessages() {
		return fmt.Errorf("comm: matrix has self messages on the diagonal")
	}
	return nil
}

// String renders small matrices for debugging; large matrices render
// as a summary line.
func (m *Matrix) String() string {
	if m.n > 16 {
		return fmt.Sprintf("comm.Matrix(n=%d, messages=%d, density=%d, bytes=%d)",
			m.n, m.MessageCount(), m.Density(), m.TotalBytes())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "comm.Matrix(n=%d)\n", m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteTo serializes the matrix in a simple line-oriented text format:
// a header "n <size>" followed by one "i j bytes" line per message.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := fmt.Fprintf(bw, "n %d\n", m.n)
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, msg := range m.Messages() {
		n, err := fmt.Fprintf(bw, "%d %d %d\n", msg.Src, msg.Dst, msg.Bytes)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// MaxReadNodes bounds the matrix size every loader accepts
// (CheckTriples). The matrix is dense (n^2 entries), so an unbounded
// header would let a one-line input demand petabytes; 4096 nodes (128
// MB) is far beyond any machine this repository models.
const MaxReadNodes = 4096

// CheckTriples holds msgs, [src, dst, bytes] triples, to the rules of
// an n-node matrix's nonzero entries (paper §2): n in [1,
// MaxReadNodes], at most n(n-1) entries, every node in [0, n), no self
// message, and every size positive. It is the one rule set of every
// matrix loaded from outside: Read, the binary wire decoders and the
// unschedd request path apply it. A repeated pair takes the matrix to
// find, or an order to rule it out; FromTriples rejects one.
func CheckTriples(n int, msgs [][3]int64) error {
	if n < 1 || n > MaxReadNodes {
		return fmt.Errorf("comm: matrix size %d out of range [1,%d]", n, MaxReadNodes)
	}
	if limit := n * (n - 1); len(msgs) > limit {
		return fmt.Errorf("comm: %d messages for n=%d; a matrix holds at most %d", len(msgs), n, limit)
	}
	for k, msg := range msgs {
		src, dst, bytes := msg[0], msg[1], msg[2]
		switch {
		case src < 0 || src >= int64(n) || dst < 0 || dst >= int64(n):
			return fmt.Errorf("comm: message %d: %d->%d: node out of range [0,%d)", k, src, dst, n)
		case src == dst:
			return fmt.Errorf("comm: message %d: self message %d->%d", k, src, dst)
		case bytes <= 0:
			return fmt.Errorf("comm: message %d: %d->%d: size %d must be positive", k, src, dst, bytes)
		}
	}
	return nil
}

// FromTriples builds the n-node matrix whose nonzero entries are msgs,
// in any order. It applies CheckTriples and rejects a repeated pair:
// keeping either size, or summing them, would answer for a matrix the
// input did not mean.
func FromTriples(n int, msgs [][3]int64) (*Matrix, error) {
	if err := CheckTriples(n, msgs); err != nil {
		return nil, err
	}
	m := MustNew(n)
	for k, msg := range msgs {
		at := msg[0]*int64(n) + msg[1]
		if m.data[at] != 0 {
			return nil, fmt.Errorf("comm: message %d: repeated pair %d->%d", k, msg[0], msg[1])
		}
		m.data[at] = msg[2]
	}
	return m, nil
}

// Read parses the format written by WriteTo: the header, then one
// "src dst bytes" line per message, in any order. Blank lines and
// lines starting with # are skipped. The messages are held to
// FromTriples' rules, whose errors count them from 0 in file order.
func Read(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("comm: empty input")
	}
	var n int
	if _, err := fmt.Sscanf(sc.Text(), "n %d", &n); err != nil {
		return nil, fmt.Errorf("comm: bad header %q: %v", sc.Text(), err)
	}
	// Reject a bad size before reading the messages.
	if err := CheckTriples(n, nil); err != nil {
		return nil, err
	}
	var msgs [][3]int64
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("comm: line %d: want 'src dst bytes', got %q", line, text)
		}
		var msg [3]int64
		for f, name := range [...]string{"src", "dst", "size"} {
			v, err := strconv.ParseInt(fields[f], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("comm: line %d: bad %s: %v", line, name, err)
			}
			msg[f] = v
		}
		msgs = append(msgs, msg)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromTriples(n, msgs)
}
