// Package des is a small deterministic discrete-event simulation
// engine: a virtual clock and a time-ordered event queue. Ties are
// broken by insertion order, so a simulation driven by deterministic
// inputs replays identically — a property the experiment harness and
// the tests rely on.
//
// An event is a small typed record — a kind tag plus two int32
// operands — scheduled with AtEvent/AfterEvent and dispatched through
// a single handler installed with SetHandler. The record lives
// directly in the queue's reusable backing arrays, so the engine
// generates zero garbage across Reset-reuse cycles.
package des

import (
	"fmt"
)

// Engine owns the virtual clock and the pending event queue.
//
// The queue is a sorted list of time buckets, each holding a FIFO of
// the events scheduled at one exact virtual time. Simulated cost
// models produce heavy timestamp collisions — many events share each
// distinct time — so bucketing turns a large share of pushes into an
// append and every pop into an index increment. A binary heap on the
// same workload spends most of its cycles on data-dependent sift
// branches the CPU cannot predict; the bucket scan is a short
// predictable loop over a handful of distinct times. Ordering is
// identical to a (time, insertion-seq) heap: buckets pop in time
// order, and within a bucket FIFO order is insertion order.
type Engine struct {
	now float64
	// Live buckets are index range [bhead, len(times)) of two parallel
	// arrays sorted ascending by time: times holds the timestamps and
	// meta packs each bucket's FIFO slot (low 32 bits) with the index
	// of its next unpopped event (high 32 bits). Both are pointer-free
	// scalars, so the memmove that sort-inserts a new bucket needs no
	// GC write barriers. bhead advances as front buckets drain — no
	// memmove on pop — and the arrays compact when they would
	// otherwise grow past capacity.
	bhead int
	times []float64
	meta  []uint64
	// hint remembers the bucket of the last push: event cascades
	// schedule many events at identical times back to back, and a
	// single compare beats rescanning the time array.
	hint int
	// fifos is the slot-addressed event storage. Slots never move, so
	// bucket inserts shuffle only the scalar arrays above; a drained
	// bucket's FIFO stays in place, truncated, and its slot returns to
	// freeSlots for the next bucket creation.
	fifos     [][]event
	freeSlots []int32
	count     int
	handler   func(kind, a, b int32)
}

// event is one queue entry: twelve pointer-free bytes, so appends and
// memmoves of []event need no GC write barriers.
type event struct {
	kind, a, b int32
}

const headShift = 32
const slotMask = 1<<headShift - 1

// push appends the event to the bucket at time t, creating and
// sort-inserting the bucket if t is a new timestamp. A midpoint probe
// picks the scan direction, so short-delay events (near the front of
// the queue) and long-delay events (near the back) both scan roughly
// half the distinct times at worst.
func (e *Engine) push(t float64, ev event) {
	e.count++
	n := len(e.times)
	if h := e.hint; h >= e.bhead && h < n && e.times[h] == t {
		s := e.meta[h] & slotMask
		e.fifos[s] = append(e.fifos[s], ev)
		return
	}
	i := n - 1 // insert after position i
	if lo := e.bhead; i >= lo {
		if t < e.times[(lo+n)/2] {
			j := lo
			for e.times[j] < t {
				j++
			}
			if e.times[j] == t {
				e.hint = j
				s := e.meta[j] & slotMask
				e.fifos[s] = append(e.fifos[s], ev)
				return
			}
			i = j - 1
		} else {
			for e.times[i] > t {
				i--
			}
			if e.times[i] == t {
				e.hint = i
				s := e.meta[i] & slotMask
				e.fifos[s] = append(e.fifos[s], ev)
				return
			}
		}
	}
	var slot int32
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.fifos[slot] = append(e.fifos[slot], ev)
	} else {
		slot = int32(len(e.fifos))
		e.fifos = append(e.fifos, append(make([]event, 0, 16), ev))
	}
	// Reclaim the drained prefix before growing past capacity: the
	// compaction is O(live buckets) and keeps the arrays from creeping
	// rightward forever.
	if e.bhead > 0 && len(e.times) == cap(e.times) {
		m := copy(e.times, e.times[e.bhead:])
		copy(e.meta, e.meta[e.bhead:])
		e.times = e.times[:m]
		e.meta = e.meta[:m]
		i -= e.bhead
		e.bhead = 0
	}
	e.times = append(e.times, 0)
	e.meta = append(e.meta, 0)
	copy(e.times[i+2:], e.times[i+1:])
	copy(e.meta[i+2:], e.meta[i+1:])
	e.times[i+1] = t
	e.meta[i+1] = uint64(uint32(slot))
	e.hint = i + 1
	return
}

// pop removes and returns the earliest event, advancing the clock to
// its bucket time. It must only be called with a non-empty queue.
func (e *Engine) pop() event {
	i := e.bhead
	m := e.meta[i]
	slot := m & slotMask
	h := m >> headShift
	f := e.fifos[slot]
	ev := f[h]
	e.meta[i] = m + 1<<headShift
	e.now = e.times[i]
	e.count--
	if int(h)+1 == len(f) {
		e.fifos[slot] = f[:0]
		e.freeSlots = append(e.freeSlots, int32(slot))
		e.bhead = i + 1
		if e.bhead == len(e.times) {
			e.bhead = 0
			e.times = e.times[:0]
			e.meta = e.meta[:0]
		}
	}
	return ev
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// SetHandler installs the event dispatch function. Every event
// scheduled with AtEvent/AfterEvent is delivered to it as (kind, a,
// b). The handler is retained across Reset.
func (e *Engine) SetHandler(h func(kind, a, b int32)) { e.handler = h }

// Reset rewinds the clock to zero and empties the event queue while
// keeping the bucket backing arrays, so an engine can be reused across
// many simulations without re-growing the queue each time.
//
// The free list is rebuilt in descending slot order, so pops hand out
// slots 0, 1, 2, ... in the order a fresh engine creates them: a rerun
// of the same simulation then puts each bucket in the FIFO that grew
// to hold it on the first run.
func (e *Engine) Reset() {
	e.now = 0
	e.count = 0
	e.bhead = 0
	e.hint = -1
	e.times = e.times[:0]
	e.meta = e.meta[:0]
	e.freeSlots = e.freeSlots[:0]
	for i := len(e.fifos) - 1; i >= 0; i-- {
		e.fifos[i] = e.fifos[i][:0]
		e.freeSlots = append(e.freeSlots, int32(i))
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// panicPast keeps the cold panic path (and its fmt call) out of the
// schedule functions so they stay inlinable.
func (e *Engine) panicPast(t float64) {
	panic(fmt.Sprintf("des: scheduling at %v before now %v", t, e.now))
}

func panicNegative(dt float64) {
	panic(fmt.Sprintf("des: negative delay %v", dt))
}

// AtEvent schedules the event (kind, a, b) at absolute virtual time
// t, to be dispatched through the SetHandler function. It allocates
// nothing: the record is stored inline in the queue. Scheduling in the
// past panics: it would silently corrupt causality, and every caller
// derives t from Now() plus a non-negative duration.
func (e *Engine) AtEvent(t float64, kind, a, b int32) {
	if t < e.now {
		e.panicPast(t)
	}
	e.push(t, event{kind: kind, a: a, b: b})
}

// AfterEvent schedules the event dt time units from now. Negative dt
// panics.
func (e *Engine) AfterEvent(dt float64, kind, a, b int32) {
	if dt < 0 {
		panicNegative(dt)
	}
	e.push(e.now+dt, event{kind: kind, a: a, b: b})
}

// Step runs the earliest pending event, advancing the clock to its
// time. It reports whether an event was run. An event with no handler
// installed panics: it is a wiring bug, not a runtime condition.
func (e *Engine) Step() bool {
	if e.count == 0 {
		return false
	}
	ev := e.pop()
	if e.handler == nil {
		panic("des: event scheduled with no handler installed")
	}
	e.handler(ev.kind, ev.a, ev.b)
	return true
}

// LimitError reports that Run processed more than its maxEvents bound
// without draining the queue — a runaway event cascade. Now is the
// virtual time the bound tripped at.
type LimitError struct {
	MaxEvents int64
	Now       float64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("des: exceeded %d events at t=%v", e.MaxEvents, e.Now)
}

// Run processes events until the queue is empty and returns the final
// clock value. maxEvents bounds runaway simulations (0 means no
// bound); exceeding it returns a *LimitError with the clock at the
// point the bound tripped, leaving the remaining queue intact for
// inspection.
func (e *Engine) Run(maxEvents int64) (float64, error) {
	var processed int64
	for e.Step() {
		processed++
		if maxEvents > 0 && processed > maxEvents {
			return e.now, &LimitError{MaxEvents: maxEvents, Now: e.now}
		}
	}
	return e.now, nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.count }
