package comm

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestTagClassCounters: per-class accounting splits traffic by
// registered tag range, classes sum to the world totals, and negative
// (collective) tags land in the builtin class.
func TestTagClassCounters(t *testing.T) {
	w := NewWorld(2)
	w.DefineTagClass("halo", 200, 300)
	w.DefineTagClass("migrate", 100, 200)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 210, make([]byte, 40)) // halo
			p.Send(1, 150, make([]byte, 7))  // migrate
			p.Send(1, 999, make([]byte, 3))  // unregistered -> other
		} else {
			p.Recv(0, 210)
			p.Recv(0, 150)
			p.Recv(0, 999)
		}
		p.Barrier() // collective traffic
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.ClassStats("halo"); s.Messages != 1 || s.Bytes != 40 {
		t.Errorf("halo stats %+v", s)
	}
	if s := w.ClassStats("migrate"); s.Messages != 1 || s.Bytes != 7 {
		t.Errorf("migrate stats %+v", s)
	}
	if s := w.ClassStats("other"); s.Messages != 1 || s.Bytes != 3 {
		t.Errorf("other stats %+v", s)
	}
	if s := w.ClassStats("collective"); s.Messages != 2 {
		t.Errorf("collective stats %+v (barrier = 2 messages)", s)
	}
	var sum Stats
	for _, name := range w.ClassNames() {
		sum.add(w.ClassStats(name))
	}
	if total := w.TotalStats(); sum != total {
		t.Errorf("classes sum to %+v, world total %+v", sum, total)
	}
	if s := w.RankClassStats(0, "halo"); s.Messages != 1 {
		t.Errorf("rank 0 halo stats %+v", s)
	}
	if s := w.RankClassStats(1, "halo"); s.Messages != 0 {
		t.Errorf("rank 1 halo stats %+v (sends counted at sender)", s)
	}
	if s := w.ClassStats("no-such-class"); s != (Stats{}) {
		t.Errorf("unknown class stats %+v", s)
	}
}

// TestTagClassOverlapPanics: overlapping registrations are programming
// errors and must be rejected immediately.
func TestTagClassOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping tag class accepted")
		}
	}()
	w := NewWorld(1)
	w.DefineTagClass("a", 100, 200)
	w.DefineTagClass("b", 150, 250)
}

// TestBufferPoolRoundTrip: a buffer released by the receiver re-enters
// circulation with its capacity preserved, so a steady-state exchange
// reuses the same backing arrays instead of allocating.
func TestBufferPoolRoundTrip(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(p *Proc) error {
		b := p.AcquireBuffer()
		b.Int64(1)
		got := p.SendRecvBuffer(0, 5, b, 0, 5)
		if got != b {
			return fmt.Errorf("self exchange returned a different buffer")
		}
		p.ReleaseBuffer(got)
		cap0 := cap(got.Bytes())
		again := p.AcquireBuffer()
		if again != b {
			return fmt.Errorf("freelist did not return the released buffer")
		}
		if again.Len() != 0 || cap(again.Bytes()) != cap0 {
			return fmt.Errorf("reacquired buffer len %d cap %d, want 0 and %d",
				again.Len(), cap(again.Bytes()), cap0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// countingTransport embeds another Transport and counts the traffic
// through Send — the smallest possible proof that the transport seam
// is pluggable: the whole collective and point-to-point protocol must
// run unchanged over a wrapper that overrides a single method.
type countingTransport struct {
	Transport
	sends atomic.Int64
}

func (c *countingTransport) Send(src, dst int, m Message) {
	c.sends.Add(1)
	c.Transport.Send(src, dst, m)
}

// TestCustomTransport: a world over a wrapped transport behaves
// identically and every message flows through the custom path.
func TestCustomTransport(t *testing.T) {
	const p = 4
	ct := &countingTransport{Transport: NewChanTransport(p)}
	w := NewWorldTransport(p, ct)
	err := w.Run(func(pr *Proc) error {
		sum := pr.AllReduceSum(float64(pr.Rank()))
		if sum != float64(p*(p-1)/2) {
			return fmt.Errorf("sum over custom transport = %g", sum)
		}
		pr.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// AllReduce and Barrier each move 2(p-1) messages.
	if got, want := ct.sends.Load(), int64(4*(p-1)); got != want {
		t.Errorf("custom transport saw %d sends, want %d", got, want)
	}
	if total := w.TotalStats(); total.Messages != ct.sends.Load() {
		t.Errorf("world counted %d messages, transport %d", total.Messages, ct.sends.Load())
	}
}

// TestCollectivesAllocationFree: once freelists are warm, barriers and
// reductions run without heap allocation (they carry pooled buffers).
func TestCollectivesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := NewWorld(4)
	err := w.Run(func(p *Proc) error {
		iter := func() {
			p.AllReduceSum(float64(p.Rank()))
			p.Barrier()
		}
		for i := 0; i < 8; i++ {
			iter() // warm freelists on every rank
		}
		p.Barrier()
		// Rank 0 measures; the others run the same 1+10 rounds plainly
		// (AllocsPerRun counts process-wide mallocs, so their steady
		// state must be clean too — exactly what is being asserted).
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
			return fmt.Errorf("%g allocs per collective round", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
