package des

import (
	"slices"
	"testing"
)

func TestResetReplaysIdentically(t *testing.T) {
	runOnce := func(e *Engine) (float64, []int32) {
		var order []int32
		e.SetHandler(func(_, a, _ int32) {
			order = append(order, a)
			if a == 1 {
				e.AfterEvent(1, 0, 2, 0)
			}
		})
		e.AtEvent(3, 0, 3, 0)
		e.AtEvent(1, 0, 1, 0)
		end, _ := e.Run(0)
		return end, order
	}
	e := New()
	t1, o1 := runOnce(e)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d", e.Now(), e.Pending())
	}
	t2, o2 := runOnce(e)
	if t1 != t2 {
		t.Errorf("reused engine finished at %v, fresh at %v", t2, t1)
	}
	if !slices.Equal(o1, o2) || !slices.Equal(o1, []int32{1, 2, 3}) {
		t.Errorf("event orders %v (fresh) and %v (reused), want [1 2 3]", o1, o2)
	}
}

func TestResetDropsQueuedEvents(t *testing.T) {
	e, ran := record()
	e.AtEvent(5, 0, 5, 0)
	e.Reset()
	e.Run(0)
	if len(*ran) != 0 {
		t.Error("event queued before Reset fired after it")
	}
	// The backing array is retained: scheduling after Reset must not
	// resurrect the dropped event.
	e.AtEvent(1, 0, 1, 0)
	e.Run(0)
	if !slices.Equal(*ran, []int32{1}) {
		t.Errorf("ran %v, want [1]", *ran)
	}
}

func TestResetSeqRestartsTieBreaking(t *testing.T) {
	e, order := record()
	e.AtEvent(1, 0, 9, 0)
	e.Run(0)
	e.Reset()
	*order = (*order)[:0]
	// Two ties at the same time must fire in scheduling order even
	// after a reset rewound the queue.
	e.AtEvent(2, 0, 0, 0)
	e.AtEvent(2, 0, 1, 0)
	e.Run(0)
	if !slices.Equal(*order, []int32{0, 1}) {
		t.Errorf("tie order after reset = %v, want [0 1]", *order)
	}
}
