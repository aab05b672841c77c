package burst

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"bladerunner/internal/durlog"
	"bladerunner/internal/frame"
	"bladerunner/internal/frame/frametest"
)

// The receive path's two ownership rules (DESIGN.md §7e): a frame's payload
// is BORROWED by HandleFrame, a batch on Events is LEASED. TestMain turns the
// poison hook on for this whole package, so every test here also proves that
// nothing in the package reads memory whose loan has ended.

// scriptConn is a transport end that plays a fixed byte stream and then
// either ends it (io.EOF) or, with hold set, blocks until closed — a peer
// that sent what it sent and went quiet.
type scriptConn struct {
	r      io.Reader
	hold   bool
	closed chan struct{}
	once   sync.Once
}

func newScriptConn(stream []byte, hold bool) *scriptConn {
	return &scriptConn{r: bytes.NewReader(stream), hold: hold, closed: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF && c.hold {
		<-c.closed
		return 0, io.ErrClosedPipe
	}
	return n, err
}

func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// viaSession reads stream through a Session and returns the frames its
// handler saw (payloads copied: they are borrowed) and the close error.
func viaSession(t *testing.T, rwc io.ReadWriteCloser) ([]Frame, error) {
	t.Helper()
	col := &frameCollector{}
	s := NewSession("rx", rwc, col)
	defer s.Close()
	waitFor(t, "session to finish the stream", col.isClosed)
	col.mu.Lock()
	defer col.mu.Unlock()
	return col.frames, col.err
}

// viaReadFrame reads stream with the owning read until it fails.
func viaReadFrame(stream []byte) ([]Frame, error) {
	br := bufio.NewReader(bytes.NewReader(stream))
	var out []Frame
	for {
		f, err := ReadFrame(br)
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

func sameFrames(t *testing.T, how string, got, want []Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", how, len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].SID != want[i].SID || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: frame %d = type %v sid %d payload %d bytes, want type %v sid %d payload %d bytes",
				how, i, got[i].Type, got[i].SID, len(got[i].Payload), want[i].Type, want[i].SID, len(want[i].Payload))
		}
	}
}

// The borrowing read a Session does and the owning ReadFrame are one framing:
// the same bytes give the same (type, sid, payload) sequence and the same
// ending, whole or torn into 1–7-byte reads.
func TestSessionFramingMatchesReadFrame(t *testing.T) {
	pattern := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + n)
		}
		return p
	}
	frames := []Frame{
		{Type: FrameSubscribe, SID: 1, Payload: encodeMsg(Subscribe{Header: Header{HdrTopic: "/t/1"}, Body: []byte("b")})},
		{Type: FrameCancel, SID: 2}, // empty payload
		{Type: FrameBatch, SID: 3, Payload: pattern(300)},
		{Type: FrameBatch, SID: 4, Payload: pattern(readBufSize - frame.HeaderSize)}, // header + payload fill the buffer
		{Type: FrameBatch, SID: 5, Payload: pattern(readBufSize)},                    // the largest borrowed in place
		{Type: FrameBatch, SID: 6, Payload: pattern(readBufSize + 1)},                // the smallest read into its own allocation
		{Type: FrameCancel, SID: 1 << 40, Payload: encodeMsg(Cancel{Reason: "scrolled away"})},
		{Type: FrameBatch, SID: 7, Payload: pattern(40)},
	}
	var whole bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&whole, f); err != nil {
			t.Fatal(err)
		}
	}
	oversized := make([]byte, frame.HeaderSize)
	oversized[0] = byte(FrameBatch)
	binary.BigEndian.PutUint32(oversized[9:], frame.MaxPayload+1)

	for _, c := range []struct {
		name   string
		stream []byte
		hold   bool // the peer goes quiet instead of hanging up
		frames int
		ending func(error) bool
	}{
		{"clean end", whole.Bytes(), false, len(frames),
			func(err error) bool { return err == io.EOF }},
		{"torn payload", whole.Bytes()[:whole.Len()-10], false, len(frames) - 1,
			func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) }},
		{"payload announced, none sent", whole.Bytes()[:whole.Len()-40], false, len(frames) - 1,
			func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) }},
		{"torn header", whole.Bytes()[:whole.Len()-45], false, len(frames) - 1,
			func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) }},
		// The peer announces more than MaxPayload and sends nothing more: the
		// length is refused from the header alone, before any read for it
		// (which, on a quiet peer, would never return).
		{"oversized length", append(whole.Bytes()[:whole.Len():whole.Len()], oversized...), true, len(frames),
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeds") }},
	} {
		want, wantErr := viaReadFrame(c.stream)
		if len(want) != c.frames || !c.ending(wantErr) {
			t.Fatalf("%s: ReadFrame gave %d frames and %v", c.name, len(want), wantErr)
		}
		sameFrames(t, c.name+": ReadFrame", want, frames[:c.frames])

		got, err := viaSession(t, newScriptConn(c.stream, c.hold))
		sameFrames(t, c.name+": session, whole reads", got, want)
		if !c.ending(err) {
			t.Errorf("%s: session, whole reads: closed with %v, ReadFrame ended with %v", c.name, err, wantErr)
		}
		got, err = viaSession(t, frametest.NewChunkConn(newScriptConn(c.stream, c.hold)))
		sameFrames(t, c.name+": session, 1–7-byte reads", got, want)
		if !c.ending(err) {
			t.Errorf("%s: session, 1–7-byte reads: closed with %v, ReadFrame ended with %v", c.name, err, wantErr)
		}
	}
}

// A handler that keeps a borrowed payload past HandleFrame has kept nothing:
// the next frame overwrites it — here, with the hook on, the session does so
// itself, at once and visibly.
func TestRetainedBorrowedPayloadIsPoisoned(t *testing.T) {
	for _, n := range []int{64, readBufSize + 1} { // borrowed in place; read into its own allocation
		var wire bytes.Buffer
		if err := WriteFrame(&wire, Frame{Type: FrameBatch, SID: 1, Payload: bytes.Repeat([]byte("p"), n)}); err != nil {
			t.Fatal(err)
		}
		var retained []byte
		intact, done := false, make(chan struct{})
		s := NewSession("rx", newScriptConn(wire.Bytes(), false), HandlerFuncs{
			OnFrame: func(f Frame) {
				intact = bytes.Count(f.Payload, []byte("p")) == n
				retained = f.Payload // the bug under test
			},
			OnClose: func(error) { close(done) },
		})
		<-done
		s.Close()
		if !intact {
			t.Fatalf("%d-byte payload: not intact inside HandleFrame", n)
		}
		if bytes.Count(retained, []byte{0xDB}) != n {
			t.Errorf("%d-byte payload kept past HandleFrame still reads %q...", n, retained[:8])
		}
	}
}

// The same for a lease: after Release the bytes its deltas aliased read as
// poison, the deltas and their header maps as empty, and a second Release is
// caught.
func TestReleasedLeaseIsPoisoned(t *testing.T) {
	cli, _, srv := newClientServer(t)
	cli.Relay = true
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	if err := srv.stream(0).SendBatch(PayloadDelta(7, []byte("payload")), RewriteDelta(Header{HdrCursor: "1.7"}, []byte("body"))); err != nil {
		t.Fatal(err)
	}
	rc, _ := st.Next()
	deltas, payload, body, patch := rc.Deltas, rc.Deltas[0].Payload, rc.Deltas[1].Body, rc.Deltas[1].Header
	if len(deltas) != 2 || string(payload) != "payload" || string(body) != "body" || patch[HdrCursor] != "1.7" {
		t.Fatalf("leased batch = %+v", deltas)
	}
	rc.Release()
	if deltas[0].Type != 0 || deltas[1].Type != 0 || string(payload) != strings.Repeat("\xDB", 7) ||
		string(body) != "\xDB\xDB\xDB\xDB" || len(patch) != 0 {
		t.Errorf("kept past Release: deltas %+v, payload %q, body %q, patch %v", deltas, payload, body, patch)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Release went unnoticed")
		}
	}()
	rc.Release()
}

// A consumer that never releases — the device: it hands deltas on to the app —
// keeps every batch intact however many frames the session reads afterwards.
func TestUnreleasedLeasesStayIntact(t *testing.T) {
	cli, _, srv := newClientServer(t)
	cli.Relay = true
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)
	const kept, later = 100, 10000
	text := func(i int) string { return "payload-" + strconv.Itoa(i) }
	var held []*Received
	for i := 0; i < kept+later; i++ {
		if err := ss.SendBatch(PayloadDelta(uint64(i+1), []byte(text(i))),
			RewriteDelta(Header{HdrCursor: "1." + strconv.Itoa(i)}, []byte(text(i)))); err != nil {
			t.Fatal(err)
		}
		rc, _ := st.Next()
		if i < kept {
			held = append(held, rc)
		} else {
			rc.Release() // a relay beside the device, recycling leases all the while
		}
	}
	for i, rc := range held {
		d := rc.Deltas
		if len(d) != 2 || d[0].Seq != uint64(i+1) || string(d[0].Payload) != text(i) ||
			string(d[1].Body) != text(i) || len(d[1].Header) != 1 || d[1].Header[HdrCursor] != "1."+strconv.Itoa(i) {
			t.Fatalf("batch %d, never released, now reads %+v", i, d)
		}
	}
}

// At the bound a queued batch loses its payload in place (the queue is read
// only after the whole run): its rewrite keeps its slot and the lease it
// aliases, which is not recycled under it, and a batch left empty is. Every
// rewrite reaches the consumer, in order, with its patch, and the shed adds
// nothing but its one marker.
func TestShedKeepsControlInItsLease(t *testing.T) {
	cli, _, srv := newClientServer(t)
	cli.Relay = true
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)
	const total = 2*eventBuffer + 50
	for i := 1; i <= total; i++ {
		deltas := []Delta{PayloadDelta(uint64(i), []byte("p")), RewriteDelta(Header{HdrCursor: "1." + strconv.Itoa(i)}, nil)}
		if i%3 == 0 { // payload-only batches are shed whole and their leases recycled in between
			deltas = deltas[:1]
		}
		if err := ss.SendBatch(deltas...); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every batch applied", func() bool { return st.LastSeq() == total })
	if cli.Dropped.Value() == 0 {
		t.Fatal("nothing was shed")
	}
	if err := st.Cancel(""); err != nil { // Next hands out what is queued, then reports the end
		t.Fatal(err)
	}
	rewrites, last, marks := 0, uint64(0), 0
	for rc, ok := st.Next(); ok; rc, ok = st.Next() {
		for _, d := range rc.Deltas {
			switch d.Type {
			case DeltaFlowStatus:
				if marks++; d.FlowDetail != QueueShedDetail || marks > 1 {
					t.Fatalf("flow status %q: the shed added a delta beside its marker", d.FlowDetail)
				}
			case DeltaRewriteRequest:
				rewrites++
				c, ok := durlog.Parse(d.Header[HdrCursor])
				if len(d.Header) != 1 || !ok || c.Seq <= last {
					t.Fatalf("rewrite %d carries %v after cursor seq %d: its patch was lost or reordered", rewrites, d.Header, last)
				}
				last = c.Seq
			}
		}
		rc.Release()
	}
	if want := total - total/3; rewrites != want || marks != 1 {
		t.Errorf("%d rewrites and %d shed markers reached the consumer, want all %d and one", rewrites, marks, want)
	}
}

// The stored request's body must outlive the borrowed subscribe frame it was
// decoded from: later frames overwrite the read buffer.
func TestStoredSubscribeBodySurvivesLaterFrames(t *testing.T) {
	cli, _, srv := newClientServer(t)
	body := bytes.Repeat([]byte("opaque-body "), 20)
	if _, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}, Body: body}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // same session, same read buffer
		other, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/other"}, Body: bytes.Repeat([]byte("X"), 300)})
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Cancel("scrolled away"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every later stream", func() bool { return srv.stream(200) != nil })
	if got := srv.stream(0).Request().Body; !bytes.Equal(got, body) {
		t.Errorf("stored body now reads %.24q...", got)
	}
	srv.mu.Lock()
	handed := srv.subs[0].Body
	srv.mu.Unlock()
	if !bytes.Equal(handed, body) {
		t.Errorf("the body the subscribe handler was handed now reads %.24q...", handed)
	}
}

// The stored request's header outlives the borrowed subscribe frame whether
// its bytes fit the stream's inline room or, one byte longer, take a copy of
// their own: later frames overwrite the read buffer, and rewrites merge beside
// the pairs, copying what they set behind the header's bytes, never over them.
func TestStoredSubscribeHeaderSurvivesLaterFrames(t *testing.T) {
	cli, _, srv := newClientServer(t)
	subs := []Subscribe{headerOf(headerRoom), headerOf(headerRoom + 1)}
	for _, sub := range subs {
		if _, err := cli.Subscribe(sub); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // same session, same read buffer
		other, err := cli.Subscribe(Subscribe{Header: Header{"k": strings.Repeat("X", headerRoom-3)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Cancel("scrolled away"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every later stream", func() bool { return srv.stream(len(subs)+199) != nil })
	for i, sub := range subs {
		st := srv.stream(i)
		st.mu.Lock()
		room, val := st.hdr, st.req.pairs[0].val
		st.mu.Unlock()
		if inRoom := within(unsafe.Slice(unsafe.StringData(val), len(val)), st.hdr[:]); inRoom != (i == 0) {
			t.Errorf("a %d-byte header's value in the stream's %d-byte room: %v", headerRoom+i, headerRoom, inRoom)
		}
		if err := st.Rewrite(Header{HdrCursor: "1.7", HdrStickyBRASS: "brass-7"}, nil); err != nil {
			t.Fatal(err)
		}
		want := sub.Header.Clone().Merge(Header{HdrCursor: "1.7", HdrStickyBRASS: "brass-7"})
		if got := st.Request().Header; !reflect.DeepEqual(got, want) {
			t.Errorf("stream %d's stored header now reads %.40q, want %.40q", i, got, want)
		}
		used := headerRoom * (1 - i) // the first header fills the room, the second is not in it
		if st.mu.Lock(); !bytes.Equal(st.hdr[:used], room[:used]) {
			t.Errorf("stream %d's rewrites wrote over its header's bytes", i)
		}
		st.mu.Unlock()
	}
}

// A cancel's reason is borrowed from its frame: what a handler keeps past
// OnCancel reads 0xDB under the poison hook (TestMain turns it on), while a
// copy made inside the call reads as sent.
func TestCancelReasonIsBorrowed(t *testing.T) {
	a, b := pipePair()
	cli := NewClient("device", a, nil)
	var mu sync.Mutex
	var kept, copied []string
	ss := NewServerSession("brass", b, ServerHandlerFuncs{Cancel: func(_ *ServerStream, c Cancel) {
		mu.Lock()
		kept, copied = append(kept, c.Reason), append(copied, strings.Clone(c.Reason))
		mu.Unlock()
	}})
	t.Cleanup(func() { cli.Close(); ss.Close() })
	reasons := []string{"scrolled away", "closed the app"}
	for _, reason := range reasons {
		st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Cancel(reason); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both cancels", func() bool { mu.Lock(); defer mu.Unlock(); return len(copied) == 2 })
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(copied, reasons) {
		t.Errorf("copies made inside OnCancel read %q, want %q", copied, reasons)
	}
	if want := strings.Repeat("\xdb", len(reasons[0])); kept[0] != want {
		t.Errorf("the reason a handler kept past OnCancel still reads %q", kept[0])
	}
}
