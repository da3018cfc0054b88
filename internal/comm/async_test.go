package comm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestISendIRecvRoundTrip: a receive posted before the matching send
// completes with the right payload, and two handles posted on one link
// complete in posting order (the non-overtaking rule: FIFO per link,
// matched positionally).
func TestISendIRecvRoundTrip(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			// Post both receives before rank 1 has sent anything.
			h1 := p.IRecvBuffer(1, 5)
			h2 := p.IRecvBuffer(1, 6)
			p.Send(1, 7, nil) // release rank 1's sends
			b1 := h1.Wait()
			b2 := h2.Wait()
			var rd Reader
			rd.Reset(b1.Bytes())
			first := rd.Int64()
			rd.Reset(b2.Bytes())
			second := rd.Int64()
			p.ReleaseBuffer(b1)
			p.ReleaseBuffer(b2)
			if first != 11 || second != 22 {
				return fmt.Errorf("handles completed out of order: %d, %d", first, second)
			}
		} else {
			p.Recv(0, 7)
			b := p.AcquireBuffer()
			b.Int64(11)
			p.SendBuffer(0, 5, b)
			b = p.AcquireBuffer()
			b.Int64(22)
			p.SendBuffer(0, 6, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Completion-point wait accounting lands under the receive tag's
	// class, like the blocking receive's.
	if st := w.TotalStats(); st.Messages != 3 {
		t.Errorf("stats %+v, want 3 messages", st)
	}
}

// TestAsyncExchangeZeroAllocs: a steady-state post/complete cycle —
// IRecv, send of a pooled buffer, Wait, release — allocates nothing.
// Handles are plain values; only the warm pooled buffers circulate.
func TestAsyncExchangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := NewWorld(2)
	err := w.Run(func(p *Proc) error {
		peer := 1 - p.Rank()
		iter := func() {
			h := p.IRecvBuffer(peer, 3)
			b := p.AcquireBuffer()
			b.Int64(int64(p.Rank()))
			p.SendBuffer(peer, 3, b)
			got := h.Wait()
			p.ReleaseBuffer(got)
		}
		for i := 0; i < 8; i++ {
			iter()
		}
		p.Barrier()
		if p.Rank() != 0 {
			for i := 0; i < 11; i++ {
				iter()
			}
			p.Barrier()
			return nil
		}
		allocs := testing.AllocsPerRun(10, iter)
		p.Barrier()
		if allocs != 0 {
			return fmt.Errorf("%g allocs per async exchange cycle", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortUnblocksReceive: when one rank's SPMD function fails, a
// peer blocked in a receive on a message that will never arrive
// unwinds with ErrAborted instead of deadlocking the world.
func TestAbortUnblocksReceive(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			return fmt.Errorf("boom")
		case 1:
			p.RecvBuffer(0, 9) // never sent: must unwind via abort
			return fmt.Errorf("receive from a failed rank returned")
		default:
			h := p.IRecvBuffer(0, 9)
			h.Wait() // posted form of the same dead wait
			return fmt.Errorf("posted receive from a failed rank completed")
		}
	})
	if err == nil {
		t.Fatal("world with a failed rank returned nil")
	}
	if !errors.Is(err, ErrAborted) {
		t.Errorf("joined error does not carry ErrAborted: %v", err)
	}
	if want := "boom"; !strings.Contains(err.Error(), want) {
		t.Errorf("joined error lost the original failure %q: %v", want, err)
	}
}

// TestAbortDuringBarrierlessDrain: the abort fires even when the
// failing rank errors only after peers are already blocked — the
// select re-checks the abort channel, not just a pre-wait flag.
func TestAbortDuringBarrierlessDrain(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			time.Sleep(20 * time.Millisecond) // let rank 1 block first
			return fmt.Errorf("late failure")
		}
		p.RecvBuffer(0, 4)
		return fmt.Errorf("dead receive returned")
	})
	if !errors.Is(err, ErrAborted) {
		t.Errorf("late abort did not unblock the receive: %v", err)
	}
}

// TestWaitOnUnpostedHandlePanics pins the zero-value guard.
func TestWaitOnUnpostedHandlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Wait on a zero RecvHandle did not panic")
		}
	}()
	var h RecvHandle
	h.Wait()
}
