package ctrl

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"time"

	"bladerunner/internal/frame"
	"bladerunner/internal/pylon"
	"bladerunner/internal/trace"
)

// method is the number that opens every payload. The numbers are the
// protocol: never renumber, only append (DESIGN.md §12 has the layouts). A
// retired method keeps its number as a reserved gap — 9 was was.point-query —
// which nothing serves or sends: a request for it is answered like any other
// method this end does not serve.
type method uint8

const (
	mRegisterHost method = iota + 1
	mSubscribe
	mUnsubscribe
	mRemoveHost
	mPublish
	mWaitSubscriber
	mDeliver // notification, pylon -> host
	mQuery
	_ // 9: reserved
	mMutate
	mResolveSubscription
	mCheckVisibility
	mResolvePayload
	mFetchPayload
	mPing
	mDrain

	maxMethod = int(mDrain)
)

var methodNames = [maxMethod + 1]string{
	mRegisterHost:        "pylon.register-host",
	mSubscribe:           "pylon.subscribe",
	mUnsubscribe:         "pylon.unsubscribe",
	mRemoveHost:          "pylon.remove-host",
	mPublish:             "pylon.publish",
	mWaitSubscriber:      "pylon.wait-subscriber",
	mDeliver:             "pylon.deliver",
	mQuery:               "was.query",
	mMutate:              "was.mutate",
	mResolveSubscription: "was.resolve-subscription",
	mCheckVisibility:     "was.check-visibility",
	mResolvePayload:      "was.resolve-payload",
	mFetchPayload:        "was.fetch-payload",
	mPing:                "node.ping",
	mDrain:               "node.drain",
}

func (m method) known() bool { return int(m) <= maxMethod && methodNames[m] != "" }

func (m method) String() string {
	if m.known() {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// putEvent appends ev, every field in declaration order: Meta is its
// Score's bits byte-reversed as a varint (a zero or round score is short),
// then a byte a field, so the zero Meta is four bytes. Published travels as
// UnixNano with the zero time as 0: the instant survives, its monotonic
// reading and zone do not. publish, deliver, check-visibility and the two
// payload methods all carry an event, and this is its one encoding.
//
//brlint:hotpath per-delivery event encode into the pooled frame buffer.
func putEvent(b *bytes.Buffer, ev *pylon.Event) {
	frame.PutString(b, string(ev.Topic))
	frame.PutUvarint(b, ev.ID)
	frame.PutUvarint(b, ev.Ref)
	frame.PutUvarint(b, ev.Seq)
	frame.PutUvarint(b, ev.Author)
	frame.PutUvarint(b, bits.ReverseBytes64(math.Float64bits(ev.Meta.Score)))
	b.WriteByte(ev.Meta.Lang)
	b.WriteByte(ev.Meta.Kind)
	b.WriteByte(boolByte(ev.Meta.On))
	var ns int64
	if !ev.Published.IsZero() {
		ns = ev.Published.UnixNano()
	}
	frame.PutUvarint(b, uint64(ns))
	frame.PutString(b, ev.Origin)
	frame.PutUvarint(b, uint64(ev.Trace))
}

// readEvent reads what putEvent wrote; its strings are copies.
func readEvent(r *frame.Reader) (ev pylon.Event) {
	ev.Topic = pylon.Topic(r.Str())
	ev.ID = r.Uvarint()
	ev.Ref = r.Uvarint()
	ev.Seq = r.Uvarint()
	ev.Author = r.Uvarint()
	ev.Meta.Score = math.Float64frombits(bits.ReverseBytes64(r.Uvarint()))
	ev.Meta.Lang = r.Byte()
	ev.Meta.Kind = r.Byte()
	ev.Meta.On = r.Byte() != 0
	if ns := int64(r.Uvarint()); ns != 0 {
		ev.Published = time.Unix(0, ns)
	}
	ev.Origin = r.Str()
	ev.Trace = trace.ID(r.Uvarint())
	return ev
}

// eventMemo remembers the events a connection's dispatcher decoded last,
// by their encoding. A fan-out asks about one event once per viewer; in
// process those deliveries share one Event, and the memo gives the served
// side the same sharing in place of a topic and an origin per viewer. Only
// the dispatcher goroutine touches it. Eight entries cover the handful of
// events a BRASS host has in flight at once.
type eventMemo struct {
	enc  [8][]byte
	ev   [8]pylon.Event
	next int
}

// readEvent reads the event that ends r's payload — every layout puts the
// event last, so its encoding is all that is left — through the memo. For
// handlers, on methods that repeat an event.
func (c *Conn) readEvent(r *frame.Reader) pylon.Event {
	enc := r.B
	for i, seen := range c.memo.enc {
		if len(enc) > 0 && bytes.Equal(seen, enc) {
			r.B = nil
			return c.memo.ev[i]
		}
	}
	ev := readEvent(r)
	if r.Done() == nil {
		i := c.memo.next
		c.memo.next = (i + 1) % len(c.memo.enc)
		c.memo.enc[i], c.memo.ev[i] = append(c.memo.enc[i][:0], enc...), ev
	}
	return ev
}
