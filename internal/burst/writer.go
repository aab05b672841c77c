package burst

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"bladerunner/internal/frame"
)

// maxPending bounds the bytes a server session queues for its writer: a
// sender that finds this much not yet taken waits for the next round. A frame
// is never split, so the last one in may carry the queue past the bound.
const maxPending = 64 << 10

// A Forwarder is a relay's hand on its upstream leg (ClientStream.Forward):
// the writer of the session the leg forwards to calls Forward with each batch
// the leg queued, in order, one at a time. Forward owns rc: it filters it in
// place, sends what is left with SendBatch — which does not wait for room
// during a turn, as the writer is what makes room — and releases it.
type Forwarder interface {
	Forward(rc *Received)
}

// writer is a server session's one sender (DESIGN.md §7e). Senders encode
// into pending; each round, the writer gives every ready relay leg one turn,
// then puts all of pending on the transport in one Write. It never waits for
// more, so what shares a write is what queued while the last one was in
// flight.
type writer struct {
	srv *ServerSession

	mu             sync.Mutex
	pending        *bytes.Buffer // from the frame pool; nil when empty
	frames         int           // in pending
	head, tail     *ClientStream // relay legs with batches queued, in turn order
	inTurn, closed bool
	waiters        int           // senders parked on room
	wake, room     chan struct{} // wake holds at most one token; room gets one per waiter a round
}

var errNoEncoding = errors.New("no payload encoding for this message type")

// send encodes a frame of type t on stream sid into pending (v as for
// Session.SendMsg) and wakes the writer.
//
//brlint:hotpath per-frame send: encode into the session's pending buffer; the writer writes.
func (w *writer) send(t FrameType, sid StreamID, v any) error {
	w.mu.Lock()
	for !w.closed && !w.inTurn && w.pending != nil && w.pending.Len() >= maxPending {
		w.waiters++
		w.mu.Unlock()
		<-w.room
		w.mu.Lock()
	}
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("session %s: %w", w.srv.sess.name, ErrSessionClosed)
	}
	if w.pending == nil {
		w.pending = frame.GetBuf()
	}
	start := w.pending.Len()
	frame.Begin(w.pending, byte(t), uint64(sid))
	err := errNoEncoding
	if putMsg(w.pending, v) {
		_, err = frame.EndAt(w.pending, start)
	}
	if err != nil {
		w.pending.Truncate(start)
		w.mu.Unlock()
		return fmt.Errorf("burst: %v frame: %w", t, err)
	}
	w.frames++
	w.mu.Unlock()
	w.signal()
	return nil
}

func (w *writer) signal() {
	select {
	case w.wake <- struct{}{}:
	default: // a token is waiting already
	}
}

// link queues leg, which has batches, for a turn; the caller holds leg.mu.
func (w *writer) link(leg *ClientStream) {
	w.mu.Lock()
	if !w.closed {
		w.appendLocked(leg)
	}
	w.mu.Unlock()
	w.signal()
}

func (w *writer) appendLocked(leg *ClientStream) {
	if w.tail == nil {
		w.head = leg
	} else {
		w.tail.nextLeg = leg
	}
	w.tail = leg
}

// shut stops the writer: pending frames die with the transport, and parked
// senders get ErrSessionClosed.
func (w *writer) shut() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.signal()
}

func (w *writer) run() {
	for {
		w.mu.Lock()
		for w.pending == nil && w.head == nil && !w.closed {
			w.mu.Unlock()
			<-w.wake
			w.mu.Lock()
		}
		closed := w.closed
		w.mu.Unlock()
		w.drain()
		w.round()
		if closed {
			return
		}
	}
}

// drain gives each leg ready now one turn — one batch — unless pending
// reaches its bound first. One batch a leg a round keeps the leg's ring the
// one place its batches wait, and are shed, while a write is stalled.
func (w *writer) drain() {
	w.mu.Lock()
	for last := w.tail; w.head != nil && !w.closed && (w.pending == nil || w.pending.Len() < maxPending); {
		leg := w.head
		if w.head = leg.nextLeg; w.head == nil {
			w.tail = nil
		}
		leg.nextLeg, w.inTurn = nil, true
		w.mu.Unlock()
		more := leg.turn()
		w.mu.Lock()
		if w.inTurn = false; more {
			w.appendLocked(leg)
		}
		if leg == last {
			break
		}
	}
	w.mu.Unlock()
}

// round takes all of pending and puts it on the transport in one Write,
// then lets the parked senders go on; a closed session's frames are dropped.
//
//brlint:hotpath per-round send: every frame queued since the last write goes out in one transport write.
func (w *writer) round() {
	w.mu.Lock()
	buf, frames, waiters, closed := w.pending, w.frames, w.waiters, w.closed
	w.pending, w.frames, w.waiters = nil, 0, 0
	w.mu.Unlock()
	for ; waiters > 0; waiters-- {
		w.room <- struct{}{}
	}
	if buf == nil {
		return
	}
	if !closed && buf.Len() > 0 {
		if _, err := w.srv.sess.rwc.Write(buf.Bytes()); err != nil {
			_ = w.srv.sess.sendFailed(err)
		} else {
			w.srv.Writes.Inc()
			w.srv.Frames.Add(int64(frames))
		}
	}
	frame.PutBuf(buf)
}
