// Package mpemu is a message-passing runtime emulating the iPSC/860's
// NX programming model on goroutines and channels: ranked nodes,
// tagged sends and receives, pairwise exchange, barrier, and the
// concatenate (allgather) collective the paper's runtime scheduling
// relies on (§4: "all processors can participate in a concatenate
// operation which will combine each processor's sending vector to form
// the communication matrix COM and leave a copy at every processor").
//
// This is the functional half of the machine substitution: timing
// comes from the deterministic simulator in internal/ipsc; mpemu
// validates behaviour — schedules deadlock-free under real
// concurrency, payloads delivered intact, and the runtime-scheduling
// pipeline (compact row → concatenate → derive identical schedules
// from a shared seed) actually works end to end.
package mpemu

import (
	"fmt"
	"sync"
	"time"
)

// Message is one tagged point-to-point message.
type Message struct {
	Src  int
	Tag  int
	Data []byte
}

// Comm is a communicator over n ranked nodes. Create with New, then
// Run node programs against it.
type Comm struct {
	n       int
	inboxes []chan Message
	timeout time.Duration
}

// Option configures a Comm.
type Option func(*Comm)

// WithTimeout sets how long a blocked receive waits before reporting a
// suspected deadlock. The default is 10 seconds.
func WithTimeout(d time.Duration) Option {
	return func(c *Comm) { c.timeout = d }
}

// WithBuffer sets the per-node inbox capacity. The default (4096)
// comfortably holds every experiment in this repository; sends block
// only when a receiver's inbox is full, mirroring the finite system
// buffers of §3.
func WithBuffer(slots int) Option {
	return func(c *Comm) {
		for i := range c.inboxes {
			c.inboxes[i] = make(chan Message, slots)
		}
	}
}

// New returns a communicator of n nodes.
func New(n int, opts ...Option) (*Comm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpemu: node count %d must be positive", n)
	}
	c := &Comm{n: n, timeout: 10 * time.Second}
	c.inboxes = make([]chan Message, n)
	for i := range c.inboxes {
		c.inboxes[i] = make(chan Message, 4096)
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// N returns the number of nodes.
func (c *Comm) N() int { return c.n }

// Node is one rank's handle, valid inside a Run program.
type Node struct {
	rank    int
	comm    *Comm
	pending []Message // received but not yet matched
}

// Rank returns this node's id.
func (nd *Node) Rank() int { return nd.rank }

// N returns the communicator size.
func (nd *Node) N() int { return nd.comm.n }

// Run executes program on every rank concurrently and waits for all of
// them. The first error (by rank order) is returned; a rank that
// panics is converted into an error rather than taking down the test
// process.
func (c *Comm) Run(program func(*Node) error) error {
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	for rank := 0; rank < c.n; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("mpemu: rank %d panicked: %v", rank, r)
				}
			}()
			errs[rank] = program(&Node{rank: rank, comm: c})
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("mpemu: rank %d: %w", rank, err)
		}
	}
	return nil
}

// Send delivers data to dst with the given tag. It blocks only when
// dst's inbox is full (finite buffer space, §3). Data is copied, so
// the caller may reuse its buffer.
func (nd *Node) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= nd.comm.n {
		return fmt.Errorf("mpemu: send to invalid rank %d", dst)
	}
	if dst == nd.rank {
		return fmt.Errorf("mpemu: rank %d sending to itself", nd.rank)
	}
	msg := Message{Src: nd.rank, Tag: tag, Data: append([]byte(nil), data...)}
	select {
	case nd.comm.inboxes[dst] <- msg:
		return nil
	case <-time.After(nd.comm.timeout):
		return fmt.Errorf("mpemu: rank %d send to %d tag %d timed out (receiver buffer full — the deadlock §3 warns about)",
			nd.rank, dst, tag)
	}
}

// AnySource matches a receive against any sender.
const AnySource = -1

// Recv blocks until a message from src (or AnySource) with the given
// tag arrives, and returns its payload. Out-of-order arrivals are
// queued and matched later, NX-style.
func (nd *Node) Recv(src, tag int) ([]byte, error) {
	for i, m := range nd.pending {
		if (src == AnySource || m.Src == src) && m.Tag == tag {
			nd.pending = append(nd.pending[:i], nd.pending[i+1:]...)
			return m.Data, nil
		}
	}
	deadline := time.After(nd.comm.timeout)
	for {
		select {
		case m := <-nd.comm.inboxes[nd.rank]:
			if (src == AnySource || m.Src == src) && m.Tag == tag {
				return m.Data, nil
			}
			nd.pending = append(nd.pending, m)
		case <-deadline:
			return nil, fmt.Errorf("mpemu: rank %d recv(src=%d, tag=%d) timed out with %d unmatched messages",
				nd.rank, src, tag, len(nd.pending))
		}
	}
}

// Exchange performs the pairwise exchange of §2.2: send data to peer
// and receive peer's message with the same tag. Channel buffering
// plays the role of the pairwise synchronization — both directions
// proceed without deadlock regardless of arrival order.
func (nd *Node) Exchange(peer, tag int, data []byte) ([]byte, error) {
	if err := nd.Send(peer, tag, data); err != nil {
		return nil, err
	}
	return nd.Recv(peer, tag)
}

// reserved tag space for collectives; user tags must be non-negative.
const (
	tagBarrier = -1000 - iota
	tagConcat
	tagReduce
)

// Barrier blocks until every rank has entered it. Dissemination
// barrier: ceil(log2 n) rounds of staggered signals.
func (nd *Node) Barrier() error {
	n := nd.comm.n
	for k := 1; k < n; k *= 2 {
		dst := (nd.rank + k) % n
		src := (nd.rank - k + n) % n
		if err := nd.Send(dst, tagBarrier-k, nil); err != nil {
			return err
		}
		if _, err := nd.Recv(src, tagBarrier-k); err != nil {
			return err
		}
	}
	return nil
}

// Concatenate is the allgather the paper's runtime scheduling uses:
// every rank contributes local, every rank returns the full slice of
// contributions indexed by rank. On a power-of-two communicator it
// runs recursive doubling over hypercube dimensions (the efficient
// implementation the paper cites); otherwise it falls back to a ring.
func (nd *Node) Concatenate(local []byte) ([][]byte, error) {
	n := nd.comm.n
	gathered := make([][]byte, n)
	gathered[nd.rank] = append([]byte(nil), local...)
	if n&(n-1) == 0 {
		// Recursive doubling: after round r, each node holds the
		// contributions of its 2^(r+1)-node subcube.
		for dim := 1; dim < n; dim *= 2 {
			peer := nd.rank ^ dim
			blob := encodeContributions(gathered)
			got, err := nd.Exchange(peer, tagConcat-dim, blob)
			if err != nil {
				return nil, err
			}
			if err := decodeContributions(got, gathered); err != nil {
				return nil, err
			}
		}
		return gathered, nil
	}
	// Ring allgather for non-power-of-two sizes.
	blob := encodeContributions(gathered)
	for step := 0; step < n-1; step++ {
		next := (nd.rank + 1) % n
		prev := (nd.rank - 1 + n) % n
		if err := nd.Send(next, tagConcat-step, blob); err != nil {
			return nil, err
		}
		got, err := nd.Recv(prev, tagConcat-step)
		if err != nil {
			return nil, err
		}
		if err := decodeContributions(got, gathered); err != nil {
			return nil, err
		}
		blob = got
	}
	return gathered, nil
}

// AllReduceMax returns the maximum of every rank's value.
func (nd *Node) AllReduceMax(v int64) (int64, error) {
	buf := make([]byte, 8)
	putInt64(buf, v)
	all, err := nd.Concatenate(buf)
	if err != nil {
		return 0, err
	}
	mx := v
	for _, b := range all {
		if len(b) == 8 {
			if x := getInt64(b); x > mx {
				mx = x
			}
		}
	}
	return mx, nil
}
