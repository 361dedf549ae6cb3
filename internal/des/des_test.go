package des

import (
	"errors"
	"testing"
)

// record returns an engine whose handler appends each event's a
// operand to the returned slice.
func record() (*Engine, *[]int32) {
	e := New()
	var got []int32
	e.SetHandler(func(_, a, _ int32) { got = append(got, a) })
	return e, &got
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e, order := record()
	e.AtEvent(5, 0, 2, 0)
	e.AtEvent(1, 0, 1, 0)
	e.AtEvent(9, 0, 3, 0)
	end, err := e.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 9 {
		t.Errorf("final time %v, want 9", end)
	}
	for i, v := range []int32{1, 2, 3} {
		if (*order)[i] != v {
			t.Fatalf("order = %v", *order)
		}
	}
}

func TestTiesBreakByInsertion(t *testing.T) {
	e, order := record()
	for i := int32(0); i < 10; i++ {
		e.AtEvent(7, 0, i, 0)
	}
	e.Run(0)
	if len(*order) != 10 {
		t.Fatalf("ran %d events, want 10", len(*order))
	}
	for i, v := range *order {
		if v != int32(i) {
			t.Fatalf("tie order = %v", *order)
		}
	}
}

func TestClockAdvancesDuringEvents(t *testing.T) {
	e := New()
	var seen []float64
	e.SetHandler(func(kind, _, _ int32) {
		seen = append(seen, e.Now())
		if kind == 0 {
			e.AfterEvent(3, 1, 0, 0)
		}
	})
	e.AtEvent(2, 0, 0, 0)
	e.Run(0)
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 5 {
		t.Errorf("seen = %v", seen)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.SetHandler(func(kind, _, _ int32) {
		if kind != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("past scheduling did not panic")
			}
		}()
		e.AtEvent(1, 1, 0, 0)
	})
	e.AtEvent(5, 0, 0, 0)
	e.Run(0)
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative AfterEvent did not panic")
		}
	}()
	e.AfterEvent(-1, 0, 0, 0)
}

func TestRunBoundReturnsLimitError(t *testing.T) {
	e := New()
	e.SetHandler(func(_, _, _ int32) { e.AfterEvent(1, 0, 0, 0) })
	e.AfterEvent(0, 0, 0, 0)
	_, err := e.Run(100)
	if err == nil {
		t.Fatal("event cascade did not trip the bound")
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("error %T is not a *LimitError: %v", err, err)
	}
	if le.MaxEvents != 100 {
		t.Errorf("LimitError.MaxEvents = %d, want 100", le.MaxEvents)
	}
	if le.Now != e.Now() {
		t.Errorf("LimitError.Now = %v, engine now %v", le.Now, e.Now())
	}
	// The queue is left intact for inspection, and the engine recovers
	// after a Reset.
	if e.Pending() == 0 {
		t.Error("queue drained despite limit error")
	}
	e.Reset()
	e.SetHandler(func(_, _, _ int32) {})
	e.AtEvent(1, 0, 0, 0)
	if _, err := e.Run(10); err != nil {
		t.Errorf("Run after Reset: %v", err)
	}
}

func TestStepAndPending(t *testing.T) {
	e, _ := record()
	if e.Step() {
		t.Error("Step on empty queue should be false")
	}
	e.AtEvent(1, 0, 0, 0)
	e.AtEvent(2, 0, 0, 0)
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	if !e.Step() {
		t.Error("Step should run an event")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending after Step = %d", e.Pending())
	}
}

func TestFlatEventsDispatchThroughHandler(t *testing.T) {
	e := New()
	type rec struct{ kind, a, b int32 }
	var got []rec
	e.SetHandler(func(kind, a, b int32) { got = append(got, rec{kind, a, b}) })
	e.AtEvent(3, 1, 10, 11)
	e.AtEvent(1, 2, 20, 21)
	e.AfterEvent(2, 3, 30, 31)
	end, err := e.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 3 {
		t.Errorf("final time %v, want 3", end)
	}
	want := []rec{{2, 20, 21}, {3, 30, 31}, {1, 10, 11}}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
}

func TestFlatEventWithoutHandlerPanics(t *testing.T) {
	e := New()
	e.AtEvent(1, 0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("event without handler did not panic")
		}
	}()
	e.Step()
}
