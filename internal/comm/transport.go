package comm

// Message is one point-to-point transfer moving through a Transport.
// The payload travels as a *Buffer so pooled buffers can be handed off
// sender → transport → receiver and recycled without copying.
type Message struct {
	Tag int
	Buf *Buffer
}

// tagLinkDown marks a transport-synthesized message reporting that the
// peer on a link closed its connection (EOF). It is delivered in-band
// so a rank blocked waiting on that exact link unwinds with a typed
// error, while ranks that never needed the dead link keep running —
// EOF alone must not abort a world mid-shutdown, when peers that
// finished earlier close their ends while their last frames are still
// being drained. Never appears on the wire; far outside both user tags
// and the reserved collective range.
const tagLinkDown = -1 << 30

// Transport moves messages between ranks. It is the seam that lets the
// simulation stack swap the in-process channel runtime for a real
// network fabric (sockets, RDMA, MPI) without touching any caller: the
// World layers tag matching, per-class accounting, buffer pooling and
// the abort protocol on top, so a Transport only has to deliver
// messages per (src, dst) link in FIFO order.
//
// Wrappers (fault injection, latency injection, kill drills) embed a
// Transport and override only the methods they change.
type Transport interface {
	// Send hands the message off; the sender must not touch m.Buf
	// again until it comes back through a pool. A send blocked on a
	// full link must unwind with the abort sentinel once the World
	// aborts, which closes the SetAbort channel and calls Close.
	Send(src, dst int, m Message)
	// RecvChan exposes the delivery channel of one (src → dst) link.
	// The World selects on it together with its abort channel, so every
	// receive is interruptible.
	RecvChan(dst, src int) <-chan Message
	// SetAbort injects the World's abort channel; called once at world
	// construction, before any Send.
	SetAbort(abort <-chan struct{})
	// OnFail registers a callback invoked once with the first
	// asynchronous fabric failure (peer disconnect, malformed frame,
	// I/O error); if the fabric has already failed it fires
	// immediately. The World registers its abort here.
	OnFail(func(error))
	// Close tears the transport down. The World closes it when it
	// aborts, so remote peers observe the failure as EOF and abort
	// their own worlds in turn: that chain is how a killed worker
	// unwinds all survivors. Idempotent; safe to call concurrently with
	// operations, which then fail.
	Close() error
	// MarkStep receives the simulation step counter. The socket
	// transport stamps it into every frame header so captures of a
	// broken stream carry the step they broke at.
	MarkStep(step int)
}

// chanTransport is the default in-process Transport: ranks are
// goroutines and every (src, dst) link is a buffered channel with
// strict FIFO ordering, the stand-in for MPI on the paper's clusters.
type chanTransport struct {
	links [][]chan Message // links[src][dst]
	abort <-chan struct{}  // nil until SetAbort (worlds inject theirs)
}

// linkBuffer is the per-(src,dst) channel capacity. Halo exchange,
// migration, and collectives post at most a handful of in-flight
// messages per link; the buffer only needs to decouple send/recv
// ordering within a step.
const linkBuffer = 128

// NewChanTransport builds the default in-process channel transport for
// p ranks.
func NewChanTransport(p int) Transport {
	t := &chanTransport{links: make([][]chan Message, p)}
	for s := range t.links {
		t.links[s] = make([]chan Message, p)
		for d := range t.links[s] {
			t.links[s][d] = make(chan Message, linkBuffer)
		}
	}
	return t
}

func (t *chanTransport) SetAbort(ch <-chan struct{}) { t.abort = ch }

// OnFail, Close and MarkStep are no-ops: in-process links cannot fail
// asynchronously, hold no external resources, and carry no headers.
func (t *chanTransport) OnFail(func(error)) {}
func (t *chanTransport) Close() error       { return nil }
func (t *chanTransport) MarkStep(int)       {}

func (t *chanTransport) Send(src, dst int, m Message) {
	// Fast path: the link buffer has room (the steady state — exchange
	// plans post a handful of messages per link per step).
	select {
	case t.links[src][dst] <- m:
		return
	default:
	}
	// Before SetAbort the abort channel is nil, and a nil channel
	// never selects: the send simply blocks.
	select {
	case t.links[src][dst] <- m:
	case <-t.abort:
		panic(abortSignal{rank: src, src: dst})
	}
}

func (t *chanTransport) RecvChan(dst, src int) <-chan Message {
	return t.links[src][dst]
}
