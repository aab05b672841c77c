package ctrl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"bladerunner/internal/frame"
	"bladerunner/internal/frame/frametest"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

// The tests spell the wire out by hand — str and cat below, not the frame
// primitives — so that they pin the byte tables of DESIGN.md §12 instead of
// agreeing with whatever the encoder does.

func str(s string) []byte        { return append([]byte{byte(len(s))}, s...) } // len < 128
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// rawFrame is one frame as the wire carries it.
func rawFrame(kind byte, id uint64, payload []byte) []byte {
	hdr := make([]byte, 13)
	hdr[0] = kind
	binary.BigEndian.PutUint64(hdr[1:9], id)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	return append(hdr, payload...)
}

func encodeEvent(ev pylon.Event) []byte {
	var b bytes.Buffer
	putEvent(&b, &ev)
	return b.Bytes()
}

func decodeEvent(b []byte) (pylon.Event, error) {
	r := frame.Reader{B: b}
	ev := readEvent(&r)
	return ev, r.Done()
}

var goldenEvent = pylon.Event{
	Topic: "/t/1", ID: 7, Ref: 42, Seq: 3, Author: 12, Meta: map[string]string{"lang": "2"},
	Published: time.Unix(0, 1000), Origin: "eu", Trace: 9,
}

var goldenEventBytes = cat(str("/t/1"), []byte{7, 42, 3, 12}, []byte{1, 1}, str("lang"), str("2"),
	[]byte{0xe8, 0x07}, str("eu"), []byte{9})

func TestEventRoundTrip(t *testing.T) {
	if got := encodeEvent(goldenEvent); !bytes.Equal(got, goldenEventBytes) {
		t.Errorf("golden event encodes to % x\n                    want % x", got, goldenEventBytes)
	}
	cases := map[string]pylon.Event{
		"zero":           {},
		"golden":         goldenEvent,
		"nil meta":       {Topic: "/t", Meta: nil},
		"empty meta":     {Topic: "/t", Meta: map[string]string{}},
		"empty strings":  {Meta: map[string]string{"": ""}},
		"zero published": {Topic: "/t", Published: time.Time{}},
		"published":      {Topic: "/t", Published: time.Date(2021, 10, 26, 12, 0, 0, 987654321, time.FixedZone("x", 3600))},
		"before 1970":    {Published: time.Unix(-5, 0)},
		"traced":         {Topic: "/t", Trace: trace.ID(1<<63 + 5)},
		"empty origin":   {Topic: "/t", Origin: ""},
		"big numbers":    {ID: 1<<64 - 1, Ref: 1 << 63, Seq: 1 << 35, Author: 1<<64 - 1},
	}
	for name, ev := range cases {
		got, err := decodeEvent(encodeEvent(ev))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !sameEvent(got, ev) || (got.Meta == nil) != (ev.Meta == nil) {
			t.Errorf("%s: round trip = %#v, want %#v", name, got, ev)
		}
		if _, mono := got.Published, strings.Contains(got.Published.String(), "m="); mono {
			t.Errorf("%s: a monotonic clock reading crossed the wire", name)
		}
	}
	// Every proper prefix of an encoding is truncated; any suffix trails.
	for n := 0; n < len(goldenEventBytes); n++ {
		if _, err := decodeEvent(goldenEventBytes[:n]); err == nil {
			t.Errorf("prefix of %d bytes decoded", n)
		}
	}
	if _, err := decodeEvent(append(goldenEventBytes[:len(goldenEventBytes):len(goldenEventBytes)], 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestEventRoundTripQuick(t *testing.T) {
	prop := func(topic, origin string, id, ref, seq, author, tr uint64, meta map[string]string, emptyMeta bool, ns int64) bool {
		ev := pylon.Event{Topic: pylon.Topic(topic), ID: id, Ref: ref, Seq: seq, Author: author, Meta: meta, Origin: origin, Trace: trace.ID(tr)}
		if emptyMeta {
			ev.Meta = map[string]string{}
		}
		if ns != 0 { // 0 is how the zero time travels; the epoch itself is not representable
			ev.Published = time.Unix(0, ns)
		}
		got, err := decodeEvent(encodeEvent(ev))
		return err == nil && sameEvent(got, ev) && (got.Meta == nil) == (ev.Meta == nil)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// scriptedPeer plays the far end of a Conn by hand: it records each frame
// the Conn sends and answers requests with the reply payload it was given.
type scriptedPeer struct {
	kind    byte
	payload []byte
	done    chan struct{}
}

func script(t *testing.T, reply []byte) (*Conn, *scriptedPeer) {
	t.Helper()
	a, b := net.Pipe()
	c := NewConn("stub", a, nil).Start()
	p := &scriptedPeer{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		kind, id, payload, err := frame.Read(bufio.NewReader(b), kindNotify)
		if err != nil {
			return
		}
		p.kind, p.payload = kind, payload
		if kind == kindRequest {
			_, _ = b.Write(rawFrame(kindResponse, id, reply))
		}
	}()
	t.Cleanup(func() {
		_ = c.Close()
		_ = b.Close()
		<-p.done
	})
	return c, p
}

// Every method's params and result, byte for byte: the client stub must
// send exactly the golden request and read the golden response; the served
// end of each layout is covered by the end-to-end tests.
func TestMethodLayouts(t *testing.T) {
	ev := goldenEvent
	type result = any
	cases := []struct {
		m      method
		num    byte
		call   func(*Conn) (result, error)
		params []byte
		reply  []byte
		want   result
	}{
		{mRegisterHost, 1, func(c *Conn) (result, error) { NewPylonClient(c).RegisterHost(&collector{id: "h1"}); return nil, nil },
			str("h1"), nil, nil},
		{mSubscribe, 2, func(c *Conn) (result, error) { return nil, NewPylonClient(c).Subscribe("/t/1", "h1") },
			cat(str("/t/1"), str("h1")), nil, nil},
		{mUnsubscribe, 3, func(c *Conn) (result, error) { return nil, NewPylonClient(c).Unsubscribe("/t/1", "h1") },
			cat(str("/t/1"), str("h1")), nil, nil},
		{mRemoveHost, 4, func(c *Conn) (result, error) { NewPylonClient(c).RemoveHost("h1"); return nil, nil },
			str("h1"), nil, nil},
		{mPublish, 5, func(c *Conn) (result, error) { return NewPylonClient(c).Publish(ev) },
			goldenEventBytes, []byte{0xac, 0x02}, 300},
		{mWaitSubscriber, 6, func(c *Conn) (result, error) {
			return NewPylonClient(c).WaitForSubscriber("/t/1", 1000*time.Nanosecond), nil
		}, cat(str("/t/1"), []byte{0xe8, 0x07}), []byte{1}, true},
		{mDeliver, 7, func(c *Conn) (result, error) {
			(&remoteSubscriber{id: "h1", conn: c}).Deliver(ev)
			return nil, nil
		}, cat(str("h1"), goldenEventBytes), nil, nil},
		{mQuery, 8, func(c *Conn) (result, error) { return NewWASClient(c).QueryIn("eu", 300, "q(a: 1)") },
			cat(str("eu"), []byte{0xac, 0x02}, str("q(a: 1)")), str("data"), []byte("data")},
		{mMutate, 10, func(c *Conn) (result, error) { return NewWASClient(c).MutateIn("eu", 2, "m") },
			cat(str("eu"), []byte{2}, str("m")), str("ok"), []byte("ok")},
		{mResolveSubscription, 11, func(c *Conn) (result, error) { return NewWASClient(c).ResolveSubscription(5, "s") },
			cat([]byte{5}, str("s")), cat([]byte{2}, str("/a"), str("/b")), []pylon.Topic{"/a", "/b"}},
		{mCheckVisibility, 12, func(c *Conn) (result, error) { return nil, NewWASClient(c).CheckEventVisibility(5, ev) },
			cat([]byte{5}, goldenEventBytes), nil, nil},
		{mResolvePayload, 13, func(c *Conn) (result, error) { return NewWASClient(c).ResolvePayloadIn("eu", "app", ev) },
			cat(str("eu"), str("app"), []byte{0}, goldenEventBytes), str("p"), []byte("p")},
		{mFetchPayload, 14, func(c *Conn) (result, error) { return NewWASClient(c).FetchPayloadIn("eu", "app", 5, ev) },
			cat(str("eu"), str("app"), []byte{5}, goldenEventBytes), str("p"), []byte("p")},
		{mPing, 15, func(c *Conn) (result, error) { return Ping(c) }, nil, str("brass"), "brass"},
		{mDrain, 16, func(c *Conn) (result, error) { return nil, Drain(c) }, nil, nil, nil},
	}
	// Fifteen methods on numbers 1..16: 9 (once was.point-query) is reserved.
	if len(cases) != 15 || maxMethod != 16 || method(9).known() {
		t.Fatalf("%d layouts, highest number %d, 9 known=%v; the protocol says 15, 16, reserved",
			len(cases), maxMethod, method(9).known())
	}
	for _, c := range cases {
		if byte(c.m) != c.num {
			t.Errorf("%s is method %d, the protocol says %d", c.m, c.m, c.num)
		}
		conn, peer := script(t, c.reply)
		got, err := c.call(conn)
		<-peer.done
		if err != nil {
			t.Errorf("%s: %v", c.m, err)
			continue
		}
		wantKind := kindRequest
		if c.m == mDeliver {
			wantKind = kindNotify
		}
		if want := cat([]byte{c.num}, c.params); peer.kind != wantKind || !bytes.Equal(peer.payload, want) {
			t.Errorf("%s sent kind %d payload % x\n  want kind %d payload % x", c.m, peer.kind, peer.payload, wantKind, want)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s read %#v from reply % x, want %#v", c.m, got, c.reply, c.want)
		}
	}
}

// An error frame is code, message; codes 1..7 restore a sentinel.
func TestErrorFrameLayout(t *testing.T) {
	a, b := net.Pipe()
	srv := NewConn("srv", a, nil)
	ServeWAS(srv, newWAS(t))
	srv.Start()
	defer srv.Close()
	defer b.Close()
	go func() { _, _ = b.Write(rawFrame(kindRequest, 77, cat([]byte{8}, str(""), []byte{1}, str("ghost")))) }()
	kind, id, payload, err := frame.Read(bufio.NewReader(b), kindNotify)
	if err != nil {
		t.Fatal(err)
	}
	want := cat([]byte{7}, str(`was: unknown field: query "ghost"`))
	if kind != kindError || id != 77 || !bytes.Equal(payload, want) {
		t.Errorf("error frame = kind %d id %d payload %q\n want kind %d id 77 payload %q", kind, id, payload, kindError, want)
	}
}

// served returns a Conn serving node, pylon and WAS on one end of a
// transport and the raw other end; closed receives the Conn's close error.
func served(t *testing.T, chunked bool) (raw net.Conn, conn *Conn, closed chan error) {
	t.Helper()
	var a io.ReadWriteCloser
	if chunked {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		defer ln.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			if c, err := ln.Accept(); err == nil {
				accepted <- c
			}
		}()
		if raw, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		a = frametest.NewChunkConn(<-accepted)
	} else {
		a, raw = net.Pipe()
	}
	closed = make(chan error, 1)
	conn = NewConn("srv", a, func(err error) { closed <- err })
	ServeNode(conn, "pylon", nil)
	ServePylon(conn, newPylon(t), nil)
	ServeWAS(conn, newWAS(t))
	NewPylonClient(conn)
	conn.Start()
	t.Cleanup(func() {
		_ = conn.Close()
		_ = raw.Close()
	})
	return raw, conn, closed
}

// What is not the protocol closes the connection, and Err says why — over
// a pipe and over loopback TCP read 1–7 bytes at a time.
func TestMalformedInputClosesTheConn(t *testing.T) {
	oversized := rawFrame(kindRequest, 1, nil)
	binary.BigEndian.PutUint32(oversized[9:13], frame.MaxPayload+1)
	subscribe := cat([]byte{2}, str("/t/1"), str("h1"))
	cases := []struct {
		name string
		wire []byte
		want string
	}{
		{"length above MaxPayload", oversized, "exceeds max"},
		{"kind 0", rawFrame(0, 1, []byte{15}), "unknown kind 0"},
		{"kind 5", rawFrame(5, 1, []byte{15}), "unknown kind 5"},
		{"request without a method", rawFrame(kindRequest, 1, nil), "without a method number"},
		{"notify without a method", rawFrame(kindNotify, 0, nil), "without a method number"},
		{"unknown method on a notify", rawFrame(kindNotify, 0, []byte{99}), "notify for unknown method method(99)"},
		{"method 0 on a notify", rawFrame(kindNotify, 0, []byte{0}), "notify for unknown method method(0)"},
		{"reserved method on a notify", rawFrame(kindNotify, 0, []byte{9}), "notify for unknown method method(9)"},
		{"trailing byte after ping", rawFrame(kindRequest, 1, []byte{15, 0}), "malformed node.ping params: trailing bytes"},
		{"trailing byte after subscribe", rawFrame(kindRequest, 1, append(subscribe[:len(subscribe):len(subscribe)], 0)), "malformed pylon.subscribe params: trailing bytes"},
		{"subscribe without a host", rawFrame(kindRequest, 1, subscribe[:6]), "malformed pylon.subscribe params: truncated"},
		{"string longer than the frame", rawFrame(kindRequest, 1, []byte{1, 200, 'h'}), "malformed pylon.register-host params: truncated"},
		{"event cut short", rawFrame(kindRequest, 1, cat([]byte{5}, goldenEventBytes[:9])), "malformed pylon.publish params: truncated"},
		{"meta count beyond the frame", rawFrame(kindRequest, 1, cat([]byte{12, 5}, str("/t"), []byte{0, 0, 0, 0, 1, 0xff, 0x7f})), "malformed was.check-visibility params: truncated"},
		{"deliver cut short", rawFrame(kindNotify, 0, cat([]byte{7}, str("h1"), goldenEventBytes[:3])), "malformed pylon.deliver params: truncated"},
		{"varint that never ends", rawFrame(kindRequest, 1, cat([]byte{11}, bytes.Repeat([]byte{0x80}, 11))), "malformed was.resolve-subscription params: truncated"},
		{"torn header then EOF", rawFrame(kindRequest, 1, []byte{15})[:5], "unexpected EOF"},
		{"torn payload then EOF", rawFrame(kindRequest, 1, subscribe)[:16], "unexpected EOF"},
	}
	for _, chunked := range []bool{false, true} {
		for _, c := range cases {
			name := c.name + map[bool]string{false: "/pipe", true: "/chunked-tcp"}[chunked]
			t.Run(name, func(t *testing.T) {
				raw, conn, closed := served(t, chunked)
				go func() {
					_, _ = raw.Write(c.wire)
					if strings.Contains(c.name, "EOF") {
						_ = raw.Close()
					}
				}()
				select {
				case err := <-closed:
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("closed with %v, want an error naming %q", err, c.want)
					}
					if got := conn.Err(); !errors.Is(got, err) {
						t.Errorf("Err() = %v, onClose got %v", got, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("conn stayed open")
				}
				if rest, _ := io.ReadAll(raw); len(rest) != 0 && !strings.Contains(c.name, "EOF") {
					t.Errorf("conn answered % x before closing", rest)
				}
			})
		}
	}
}

// A method number this end does not serve — one nobody defines yet, or the
// reserved 9 — is answered on a request, not fatal: the peer may be newer
// (or older) than this end.
func TestUnknownMethodOnARequestKeepsTheConn(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		for _, num := range []byte{99, 9} {
			raw, conn, _ := served(t, chunked)
			br := bufio.NewReader(raw)
			go func() {
				_, _ = raw.Write(cat(rawFrame(kindRequest, 7, []byte{num, 1, 2, 3}), rawFrame(kindRequest, 8, []byte{15})))
			}()
			kind, id, payload, err := frame.Read(br, kindNotify)
			if want := cat([]byte{1}, str("ctrl: unknown method")); err != nil || kind != kindError || id != 7 || !bytes.Equal(payload, want) {
				t.Fatalf("chunked=%v: answer to method %d = kind %d id %d %q, %v", chunked, num, kind, id, payload, err)
			}
			kind, id, payload, err = frame.Read(br, kindNotify)
			if want := str("pylon"); err != nil || kind != kindResponse || id != 8 || !bytes.Equal(payload, want) {
				t.Fatalf("chunked=%v: ping after method %d = kind %d id %d %q, %v", chunked, num, kind, id, payload, err)
			}
			if err := conn.Err(); err != nil {
				t.Errorf("chunked=%v: conn closed after method %d: %v", chunked, num, err)
			}
		}
	}
}

// A response that does not parse fails the call and closes the conn.
func TestMalformedResponseClosesTheConn(t *testing.T) {
	for name, reply := range map[string][]byte{
		"trailing bytes": cat(str("data"), []byte{0}),
		"truncated":      {200, 'x'},
	} {
		conn, _ := script(t, reply)
		_, err := NewWASClient(conn).QueryIn("", socialgraph.UserID(1), "q")
		if err == nil || !strings.Contains(err.Error(), "malformed was.query response") {
			t.Errorf("%s: call = %v", name, err)
		}
		if cerr := conn.Err(); cerr == nil || !errors.Is(err, cerr) {
			t.Errorf("%s: Err() = %v, call returned %v", name, cerr, err)
		}
	}
}

// The event memo: the same encoding decodes once and is shared, as an
// in-process fan-out shares one Event; anything else decodes afresh.
func TestEventMemo(t *testing.T) {
	c := NewConn("memo", nil, nil)
	read := func(enc []byte) (pylon.Event, error) {
		r := frame.Reader{B: append([]byte(nil), enc...)}
		ev := c.readEvent(&r)
		return ev, r.Done()
	}
	sameMap := func(a, b pylon.Event) bool {
		return reflect.ValueOf(a.Meta).Pointer() == reflect.ValueOf(b.Meta).Pointer()
	}
	first, err := read(goldenEventBytes)
	again, err2 := read(goldenEventBytes)
	if err != nil || err2 != nil || !sameEvent(first, goldenEvent) || !sameEvent(again, goldenEvent) || !sameMap(first, again) {
		t.Fatalf("repeat of one encoding: %#v, %v then %#v, %v (shared=%v)", first, err, again, err2, sameMap(first, again))
	}
	other := goldenEvent
	other.Ref++
	if got, err := read(encodeEvent(other)); err != nil || !sameEvent(got, other) || sameMap(got, first) {
		t.Errorf("a different event = %#v, %v (shared=%v)", got, err, sameMap(got, first))
	}
	for _, bad := range [][]byte{nil, goldenEventBytes[:9], append(append([]byte(nil), goldenEventBytes...), 0)} {
		for i := 0; i < 2; i++ { // twice: a malformed encoding must not be remembered
			if _, err := read(bad); err == nil {
				t.Errorf("malformed event % x accepted on read %d", bad, i)
			}
		}
	}
	for i := 0; i < len(c.memo.enc); i++ { // push the golden event out
		ev := pylon.Event{Seq: uint64(i + 1)}
		if got, err := read(encodeEvent(ev)); err != nil || !sameEvent(got, ev) {
			t.Fatalf("event %d = %#v, %v", i, got, err)
		}
	}
	if evicted, err := read(goldenEventBytes); err != nil || !sameEvent(evicted, goldenEvent) || sameMap(evicted, first) {
		t.Errorf("after eviction: %#v, %v (shared=%v)", evicted, err, sameMap(evicted, first))
	}
}

// A response or error for a call nobody made is dropped; the conn lives.
func TestStrayReplyIsDropped(t *testing.T) {
	raw, conn, _ := served(t, false)
	br := bufio.NewReader(raw)
	go func() {
		_, _ = raw.Write(cat(rawFrame(kindResponse, 42, str("data")), rawFrame(kindError, 43, []byte{6, 0}),
			rawFrame(kindRequest, 8, []byte{15})))
	}()
	kind, id, payload, err := frame.Read(br, kindNotify)
	if err != nil || kind != kindResponse || id != 8 || !bytes.Equal(payload, str("pylon")) {
		t.Fatalf("ping after stray replies = kind %d id %d %q, %v", kind, id, payload, err)
	}
	if err := conn.Err(); err != nil {
		t.Errorf("conn closed: %v", err)
	}
}
