package brass

import (
	"bytes"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/trace"
)

// wireDevice is the device end of a host session at FRAME level: it records
// every batch frame the host writes. A burst.Client would not do — an empty
// batch is a frame on the wire that ClientStream.Next never hands out.
type wireDevice struct {
	sess *burst.Session

	mu     sync.Mutex
	frames [][]burst.Delta
}

func dialWire(t *testing.T, host *Host, app string) *wireDevice {
	t.Helper()
	a, b := net.Pipe()
	d := &wireDevice{}
	d.sess = burst.NewSession("device", a, burst.HandlerFuncs{OnFrame: func(f burst.Frame) {
		if f.Type != burst.FrameBatch {
			return
		}
		// The payload is borrowed until this returns; the deltas alias it.
		batch, err := burst.DecodeBatch(bytes.Clone(f.Payload))
		if err != nil {
			t.Errorf("undecodable batch frame: %v", err)
			return
		}
		d.mu.Lock()
		d.frames = append(d.frames, batch.Deltas)
		d.mu.Unlock()
	}})
	host.AcceptSession("host-side", b)
	t.Cleanup(func() { d.sess.Close() })
	if err := d.sess.SendMsg(burst.FrameSubscribe, 1, burst.Subscribe{Header: burst.Header{
		burst.HdrApp: app, burst.HdrUser: "7",
	}}); err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *wireDevice) snapshot() [][]burst.Delta {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]burst.Delta(nil), d.frames...)
}

// TestSendIsTheOnePath pins what Push and PushCatchUp share (they are both
// Stream.send) and the one thing they do not: an empty batch writes no
// frame, a frame counts one delivery per PAYLOAD delta and closes one
// burst.flush span under the first traced delta's id, control passes a
// denied admission bucket, and only PushCatchUp carries payloads past one.
func TestSendIsTheOnePath(t *testing.T) {
	const sentinel = 999
	payload := func(seq uint64, id trace.ID) burst.Delta {
		return PayloadFor(pylon.Event{Trace: id}, seq, []byte("p"))
	}
	rewrite := burst.RewriteDelta(burst.Header{"k": "v"}, nil)

	for _, tc := range []struct {
		name   string
		denied bool // spend the stream's only admission token first
		run    func(st *Stream) error

		frames     [][]burst.DeltaType // per frame written, its delta types
		deliveries int64
		sheds      int64
		spans      []trace.ID // burst.flush spans closed, by trace id
	}{
		{name: "Push of nothing writes no frame",
			run: func(st *Stream) error { return st.Push() }},
		{name: "PushCatchUp of nothing writes no frame",
			run: func(st *Stream) error { return st.PushCatchUp() }},
		{name: "Push counts payload deltas only and spans the first traced one",
			run: func(st *Stream) error { return st.Push(payload(1, 0), payload(2, 7), payload(3, 8), rewrite) },
			frames: [][]burst.DeltaType{{burst.DeltaPayload, burst.DeltaPayload, burst.DeltaPayload,
				burst.DeltaRewriteRequest}},
			deliveries: 3, spans: []trace.ID{7}},
		{name: "Push of control alone passes a denied bucket", denied: true,
			run:    func(st *Stream) error { return st.Push(rewrite) },
			frames: [][]burst.DeltaType{{burst.DeltaRewriteRequest}}},
		{name: "PushCatchUp passes a denied bucket and still counts", denied: true,
			run:        func(st *Stream) error { return st.PushCatchUp(payload(1, 9), payload(2, 0), rewrite) },
			frames:     [][]burst.DeltaType{{burst.DeltaPayload, burst.DeltaPayload, burst.DeltaRewriteRequest}},
			deliveries: 2, spans: []trace.ID{9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plane := trace.NewPlane(trace.Config{Rate: 1, Seed: 1})
			app := &captureApp{}
			host := NewHost(HostConfig{
				ID: "brass-send", Region: "us", Tracer: plane.Tracer("brass-send"),
				StreamDeliverRate: 0.01, StreamDeliverBurst: 1, // one token for the whole test
			}, nil, nil, nil)
			host.RegisterApp(app)
			t.Cleanup(host.Close)
			dev := dialWire(t, host, "cap")
			waitFor(t, "stream captured", func() bool { return app.stream() != nil })
			st := app.stream()

			skip := 0 // frames and deliveries that are the fixture's, not the row's
			if tc.denied {
				if err := st.Push(payload(100, 0)); err != nil {
					t.Fatal(err)
				}
				skip = 1
			}
			if err := tc.run(st); err != nil {
				t.Fatal(err)
			}
			// The sentinel bypasses admission, so it always lands, last.
			if err := st.PushCatchUp(payload(sentinel, 0)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "sentinel frame", func() bool {
				fs := dev.snapshot()
				return len(fs) > 0 && fs[len(fs)-1][0].Seq == sentinel
			})
			frames := dev.snapshot()
			var got [][]burst.DeltaType
			for _, f := range frames[skip : len(frames)-1] {
				var types []burst.DeltaType
				for _, d := range f {
					types = append(types, d.Type)
				}
				got = append(got, types)
			}
			if !reflect.DeepEqual(got, tc.frames) {
				t.Errorf("frames on the wire = %v, want %v", got, tc.frames)
			}
			if got := host.Deliveries.Value() - int64(skip) - 1; got != tc.deliveries {
				t.Errorf("Deliveries = %d, want %d", got, tc.deliveries)
			}
			if got := host.StreamSheds.Value(); got != tc.sheds {
				t.Errorf("StreamSheds = %d, want %d", got, tc.sheds)
			}
			var spans []trace.ID
			for _, s := range plane.Gather() {
				if s.Hop == trace.HopFlush {
					spans = append(spans, s.Trace)
				}
			}
			if !reflect.DeepEqual(spans, tc.spans) {
				t.Errorf("burst.flush spans = %v, want %v", spans, tc.spans)
			}
		})
	}
}

// TestStreamMethodSet pins the exported surface of *Stream. A new way to
// send is a second path (DESIGN.md §7b): it belongs in send, or in this list
// on purpose.
func TestStreamMethodSet(t *testing.T) {
	want := []string{
		"AddTopic", "DropTopic", "FetchPayload", "Filtered", "Header", "Push",
		"PushCatchUp", "PushPayload", "Request", "Rewrite", "RewriteHeaderField",
		"SID", "Terminate", "Topics",
	}
	typ := reflect.TypeOf(&Stream{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported methods of *Stream = %v\nwant %v", got, want)
	}
}
