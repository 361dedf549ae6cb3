package mpemu

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unsched/internal/comm"
	"unsched/internal/hypercube"
	"unsched/internal/sched"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
}

func TestSendRecvBasic(t *testing.T) {
	c, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(nd *Node) error {
		switch nd.Rank() {
		case 0:
			return nd.Send(1, 7, []byte("hello"))
		case 1:
			data, err := nd.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(data) != "hello" {
				return fmt.Errorf("got %q", data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	c, _ := New(2)
	err := c.Run(func(nd *Node) error {
		if nd.Rank() != 0 {
			return nil
		}
		if err := nd.Send(5, 0, nil); err == nil {
			return fmt.Errorf("send to invalid rank accepted")
		}
		if err := nd.Send(0, 0, nil); err == nil {
			return fmt.Errorf("self send accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatching(t *testing.T) {
	c, _ := New(2)
	err := c.Run(func(nd *Node) error {
		switch nd.Rank() {
		case 0:
			// Send out of order; receiver matches by tag.
			if err := nd.Send(1, 2, []byte("second")); err != nil {
				return err
			}
			return nd.Send(1, 1, []byte("first"))
		case 1:
			first, err := nd.Recv(0, 1)
			if err != nil {
				return err
			}
			second, err := nd.Recv(0, 2)
			if err != nil {
				return err
			}
			if string(first) != "first" || string(second) != "second" {
				return fmt.Errorf("tag matching broken: %q %q", first, second)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySource(t *testing.T) {
	c, _ := New(3)
	err := c.Run(func(nd *Node) error {
		switch nd.Rank() {
		case 0:
			return nd.Send(2, 9, []byte{1})
		case 1:
			return nd.Send(2, 9, []byte{2})
		case 2:
			seen := map[byte]bool{}
			for i := 0; i < 2; i++ {
				data, err := nd.Recv(AnySource, 9)
				if err != nil {
					return err
				}
				seen[data[0]] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("missing sources: %v", seen)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeoutReportsDeadlock(t *testing.T) {
	c, err := New(2, WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(nd *Node) error {
		if nd.Rank() == 0 {
			_, err := nd.Recv(1, 0) // never sent
			return err
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("orphan recv error = %v", err)
	}
}

func TestSendTimeoutWhenBufferFull(t *testing.T) {
	c, err := New(2, WithTimeout(50*time.Millisecond), WithBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(nd *Node) error {
		if nd.Rank() == 0 {
			if err := nd.Send(1, 0, []byte("a")); err != nil {
				return err
			}
			// Second send overflows the 1-slot inbox; rank 1 never
			// drains it — the §3 buffer deadlock, detected.
			return nd.Send(1, 0, []byte("b"))
		}
		time.Sleep(200 * time.Millisecond)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "buffer full") {
		t.Errorf("buffer overflow error = %v", err)
	}
}

func TestExchange(t *testing.T) {
	c, _ := New(2)
	err := c.Run(func(nd *Node) error {
		peer := 1 - nd.Rank()
		got, err := nd.Exchange(peer, 3, []byte{byte(nd.Rank())})
		if err != nil {
			return err
		}
		if got[0] != byte(peer) {
			return fmt.Errorf("exchange got %d", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	c, _ := New(8)
	var before, after int32
	err := c.Run(func(nd *Node) error {
		atomic.AddInt32(&before, 1)
		if err := nd.Barrier(); err != nil {
			return err
		}
		// Every rank must have incremented before any rank proceeds.
		if got := atomic.LoadInt32(&before); got != 8 {
			return fmt.Errorf("rank %d passed barrier with before=%d", nd.Rank(), got)
		}
		atomic.AddInt32(&after, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 8 {
		t.Errorf("after = %d", after)
	}
}

func TestConcatenatePowerOfTwo(t *testing.T) {
	c, _ := New(8)
	err := c.Run(func(nd *Node) error {
		local := []byte(fmt.Sprintf("rank-%d", nd.Rank()))
		all, err := nd.Concatenate(local)
		if err != nil {
			return err
		}
		for r := 0; r < 8; r++ {
			want := fmt.Sprintf("rank-%d", r)
			if string(all[r]) != want {
				return fmt.Errorf("slot %d = %q, want %q", r, all[r], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcatenateRing(t *testing.T) {
	c, _ := New(6) // non power of two -> ring path
	err := c.Run(func(nd *Node) error {
		all, err := nd.Concatenate([]byte{byte(nd.Rank() * 10)})
		if err != nil {
			return err
		}
		for r := 0; r < 6; r++ {
			if len(all[r]) != 1 || all[r][0] != byte(r*10) {
				return fmt.Errorf("slot %d = %v", r, all[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceMax(t *testing.T) {
	c, _ := New(8)
	err := c.Run(func(nd *Node) error {
		mx, err := nd.AllReduceMax(int64(nd.Rank() * 7))
		if err != nil {
			return err
		}
		if mx != 49 {
			return fmt.Errorf("max = %d", mx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := payloadFor(3, 9, 1000)
	if err := verifyPayload(p, 3, 9); err != nil {
		t.Fatal(err)
	}
	if err := verifyPayload(p, 3, 8); err == nil {
		t.Error("wrong dst accepted")
	}
	p[10] ^= 0xff
	if err := verifyPayload(p, 3, 9); err == nil {
		t.Error("corruption not detected")
	}
}

func TestPayloadCapsBody(t *testing.T) {
	p := payloadFor(0, 1, 1<<20)
	if len(p) > 8+4096+4 {
		t.Errorf("payload not capped: %d bytes", len(p))
	}
}

// Every phased algorithm of the table runs deadlock-free on the
// emulator and delivers every message of a mixed-size matrix.
func TestExecuteScheduleDeliversEverything(t *testing.T) {
	cube := hypercube.MustNew(4)
	m, err := comm.MixedSizes(16, 5, 64, 2048, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	core := sched.NewCore(cube)
	for _, alg := range sched.Algorithms {
		if alg.Build == nil {
			continue
		}
		s, err := alg.Build(core, m, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatalf("%s: %v", alg.Tag, err)
		}
		c, _ := New(16)
		var sent, received int32
		err = c.Run(func(nd *Node) error {
			ns, nr, err := ExecuteSchedule(nd, s)
			atomic.AddInt32(&sent, int32(ns))
			atomic.AddInt32(&received, int32(nr))
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", alg.Tag, err)
		}
		if int(sent) != m.MessageCount() || int(received) != m.MessageCount() {
			t.Errorf("%s: sent %d received %d, want %d", alg.Tag, sent, received, m.MessageCount())
		}
	}
}

func TestExecuteScheduleSizeMismatch(t *testing.T) {
	c, _ := New(4)
	s := &sched.Schedule{Algorithm: "X", N: 8}
	err := c.Run(func(nd *Node) error {
		_, _, err := ExecuteSchedule(nd, s)
		if err == nil {
			return fmt.Errorf("mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecuteAC(t *testing.T) {
	m, err := comm.UniformRandom(16, 4, 512, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	order, err := sched.AC(m)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(16)
	var received int32
	err = c.Run(func(nd *Node) error {
		_, nr, err := ExecuteAC(nd, order, m)
		atomic.AddInt32(&received, int32(nr))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(received) != m.MessageCount() {
		t.Errorf("received %d, want %d", received, m.MessageCount())
	}
}

func TestRuntimeSchedulePipeline(t *testing.T) {
	// The full §4.2 runtime flow on 16 ranks: rows known only locally,
	// concatenate, identical schedules, verified execution.
	cube := hypercube.MustNew(4)
	m, err := comm.DRegular(16, 4, 1024, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(16)
	phaseCounts := make([]int, 16)
	err = c.Run(func(nd *Node) error {
		row := make([]int64, 16)
		for j := 0; j < 16; j++ {
			row[j] = m.At(nd.Rank(), j)
		}
		res, err := RuntimeSchedule(nd, cube, row, 42)
		if err != nil {
			return err
		}
		phaseCounts[nd.Rank()] = res.Schedule.NumPhases()
		if res.Sent != 4 || res.Received != 4 {
			return fmt.Errorf("rank %d sent %d received %d, want 4/4", nd.Rank(), res.Sent, res.Received)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank must have derived the same schedule.
	for r := 1; r < 16; r++ {
		if phaseCounts[r] != phaseCounts[0] {
			t.Fatalf("rank %d derived %d phases, rank 0 %d", r, phaseCounts[r], phaseCounts[0])
		}
	}
}

func TestRuntimeScheduleRowValidation(t *testing.T) {
	cube := hypercube.MustNew(2)
	c, _ := New(4)
	err := c.Run(func(nd *Node) error {
		_, err := RuntimeSchedule(nd, cube, make([]int64, 3), 1)
		if err == nil {
			return fmt.Errorf("short row accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	c, _ := New(2)
	err := c.Run(func(nd *Node) error {
		if nd.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic not converted: %v", err)
	}
}

func TestEncodeDecodeContributions(t *testing.T) {
	gathered := make([][]byte, 4)
	gathered[1] = []byte("one")
	gathered[3] = []byte("three")
	blob := encodeContributions(gathered)
	out := make([][]byte, 4)
	if err := decodeContributions(blob, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[1], []byte("one")) || !bytes.Equal(out[3], []byte("three")) {
		t.Errorf("decoded = %v", out)
	}
	if out[0] != nil || out[2] != nil {
		t.Error("phantom contributions")
	}
}

func TestDecodeContributionsRejectsGarbage(t *testing.T) {
	out := make([][]byte, 2)
	for _, blob := range [][]byte{
		{},                                    // too short
		{9, 0, 0, 0},                          // count with no bodies
		{1, 0, 0, 0, 5, 0, 0, 0, 99, 0, 0, 0}, // invalid rank header
	} {
		if err := decodeContributions(blob, out); err == nil {
			t.Errorf("garbage %v accepted", blob)
		}
	}
}
