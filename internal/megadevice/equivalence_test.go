package megadevice

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/edge"
	"bladerunner/internal/overload"
	"bladerunner/internal/socialgraph"
)

// TestEquivalenceWithDeviceModel drives two identical clusters with the
// same publish sequence — one fleet of 50 full device.Device clients, one
// 50-device megadevice Fleet — cuts the POP both fleets start on so both
// reconnect through backoff, and asserts the per-stream delivered payload
// sequences are IDENTICAL. This is the fidelity contract of the trunk
// model: sharing one real stream per (trunk, topic) must not change what
// any single device observes.
//
// Delivery around (re)attachment is inherently racy — a publish issued
// while a stream is mid-subscribe may or may not reach it — so each
// measured phase begins with a lockstep warm-up barrier: publish one warm
// delta per round to BOTH clusters and repeat until every stream on both
// sides has applied the newest warm seq. Per-stream BURST ordering then
// guarantees every later publish is delivered to every stream, and issuing
// the publishes in the same order on both clusters makes pylon's striped
// event IDs (the delta seqs) identical. Warm deltas are excluded from the
// comparison; the phase deltas must match exactly.
//
// Recovery is the other half of the contract, and it needs no cluster: the
// shed-episode subtest plays a table of scripts — shed markers, rewrites, a
// termination — to both models through a scripted POP and compares every
// upstream frame they answer with.
func TestEquivalenceWithDeviceModel(t *testing.T) {
	t.Run("shed episode", testShedEpisodeEquivalence)

	const (
		eqN     = 50
		eqAreas = 10
		eqK     = 3 // publishes per area per phase
	)
	ownerOf := func(a int) uint64 { return uint64(500 + a) }
	subOf := func(a int) string {
		return fmt.Sprintf("typingIndicator(threadID: %d, peer: %d)", a, ownerOf(a))
	}

	// Identical clusters; blocks off so the fleet's representative viewer
	// and every device viewer pass the same (trivial) privacy check.
	mkCfg := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Graph.BlockProb = 0
		return cfg
	}
	c1 := core.MustNewCluster(mkCfg(), nil)
	defer c1.Close()
	c2 := core.MustNewCluster(mkCfg(), nil)
	defer c2.Close()
	pops := c1.POPTargets()

	// Device-model fleet on c1: one device per virtual device, one stream
	// each, a collector goroutine recording the delivered seq trace.
	type devRec struct {
		st   *device.Stream
		mu   sync.Mutex
		seqs []uint64
	}
	devs := make([]*device.Device, eqN)
	recs := make([]*devRec, eqN)
	for i := 0; i < eqN; i++ {
		d := c1.NewDeviceVia(c1.Net, device.Config{
			User:        socialgraph.UserID(100 + i),
			POPs:        pops,
			BackoffSeed: int64(i) + 1,
		})
		if err := d.Connect(); err != nil {
			t.Fatalf("device %d connect: %v", i, err)
		}
		st, err := d.Subscribe(apps.AppTyping, subOf(i%eqAreas), nil)
		if err != nil {
			t.Fatalf("device %d subscribe: %v", i, err)
		}
		r := &devRec{st: st}
		go func() {
			for delta := range st.Updates {
				r.mu.Lock()
				r.seqs = append(r.seqs, delta.Seq)
				r.mu.Unlock()
			}
		}()
		devs[i], recs[i] = d, r
		defer d.Close()
	}

	// megadevice fleet on c2, same shape: device i's single stream is
	// sid i (streams are added in device order), area i%eqAreas.
	areas := make([]Area, eqAreas)
	for a := range areas {
		areas[a] = Area{
			App:          apps.AppTyping,
			Subscription: subOf(a),
			Topic:        string(apps.TypingTopic(uint64(a), ownerOf(a))),
			User:         999,
		}
	}
	fleet, err := New(Config{
		Devices:          eqN,
		Areas:            areas,
		StreamArea:       func(dev uint32, _ int) uint32 { return dev % eqAreas },
		POPs:             c2.POPTargets(),
		Dialer:           c2.Net,
		Seed:             42,
		RecordDeliveries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	fleet.ConnectAll(0)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("fleet connected", func() bool { return fleet.ConnectedCount() == eqN })

	publishBoth := func(a int) {
		t.Helper()
		expr := fmt.Sprintf(`setTyping(threadID: %d, on: "true")`, a)
		if _, err := c1.WAS.Mutate(socialgraph.UserID(ownerOf(a)), expr); err != nil {
			t.Fatalf("c1 publish area %d: %v", a, err)
		}
		if _, err := c2.WAS.Mutate(socialgraph.UserID(ownerOf(a)), expr); err != nil {
			t.Fatalf("c2 publish area %d: %v", a, err)
		}
	}

	// converged reports whether every stream of area a — device-model and
	// fleet — has applied the same seq, and returns that seq.
	converged := func(a int) (uint64, bool) {
		var v uint64
		for i := a; i < eqN; i += eqAreas {
			ds := recs[i].st.LastSeq()
			fs := fleet.LastSeq(uint32(i))
			if v == 0 {
				v = ds
			}
			if ds != v || fs != v || v == 0 {
				return 0, false
			}
		}
		return v, true
	}

	// warmBarrier publishes lockstep warm rounds on every area until both
	// sides fully converge, returning the per-area warm high-water seq.
	// Publish counts stay identical across clusters by construction, so
	// the event-ID streams stay aligned.
	warmBarrier := func(phase string) [eqAreas]uint64 {
		t.Helper()
		var water [eqAreas]uint64
		for a := 0; a < eqAreas; a++ {
			deadline := time.Now().Add(25 * time.Second)
			for {
				prev, _ := converged(a)
				publishBoth(a)
				round := time.Now().Add(300 * time.Millisecond)
				ok := false
				for time.Now().Before(round) {
					if v, c := converged(a); c && v > prev {
						water[a], ok = v, true
						break
					}
					time.Sleep(time.Millisecond)
				}
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: area %d never converged", phase, a)
				}
			}
		}
		return water
	}

	// phase runs eqK lockstep publishes per area; every publish must reach
	// every stream on both sides (the warm barrier guarantees it). Returns
	// the measured seqs per area, in delivery order.
	phase := func(name string) [eqAreas][]uint64 {
		t.Helper()
		var want [eqAreas][]uint64
		for k := 0; k < eqK; k++ {
			for a := 0; a < eqAreas; a++ {
				prev, c := converged(a)
				if !c {
					t.Fatalf("%s: area %d not settled before publish %d", name, a, k)
				}
				publishBoth(a)
				waitFor(fmt.Sprintf("%s area %d publish %d", name, a, k), func() bool {
					v, c := converged(a)
					return c && v > prev
				})
				v, _ := converged(a)
				want[a] = append(want[a], v)
			}
		}
		return want
	}

	warmBarrier("phase1 warm")
	want1 := phase("phase1")

	// Sever the POP everyone started on, on BOTH clusters. Both models
	// rotate to the next POP through jittered backoff and re-attach.
	c1.Net.SetDown(pops[0], true)
	c2.Net.SetDown(pops[0], true)
	waitFor("device fleet reconnect", func() bool {
		for _, d := range devs {
			if !d.Connected() {
				return false
			}
		}
		return true
	})
	waitFor("mega fleet reconnect", func() bool { return fleet.ConnectedCount() == eqN })

	warmBarrier("phase2 warm")
	want2 := phase("phase2")

	c1.Quiesce()
	c2.Quiesce()
	time.Sleep(50 * time.Millisecond)

	// Compare: per stream, the delivered trace filtered to the measured
	// phase seqs must equal the expected sequence exactly — same deltas,
	// same order, no gaps, no duplicates, on both models.
	for i := 0; i < eqN; i++ {
		a := i % eqAreas
		expected := append(append([]uint64(nil), want1[a]...), want2[a]...)
		inExpected := make(map[uint64]bool, len(expected))
		for _, s := range expected {
			inExpected[s] = true
		}
		filter := func(trace []uint64) []uint64 {
			out := make([]uint64, 0, len(expected))
			for _, s := range trace {
				if inExpected[s] {
					out = append(out, s)
				}
			}
			return out
		}
		recs[i].mu.Lock()
		devTrace := filter(recs[i].seqs)
		recs[i].mu.Unlock()
		fleetTrace := filter(fleet.DeliveredSeqs(uint32(i)))
		if !equalSeqs(devTrace, expected) {
			t.Errorf("device %d trace %v != expected %v", i, devTrace, expected)
		}
		if !equalSeqs(fleetTrace, expected) {
			t.Errorf("fleet stream %d trace %v != expected %v", i, fleetTrace, expected)
		}
		if !equalSeqs(devTrace, fleetTrace) {
			t.Errorf("stream %d diverged: device %v vs fleet %v", i, devTrace, fleetTrace)
		}
	}
}

func equalSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// upFrame is one frame a model sent upstream to the scripted POP.
type upFrame struct {
	Kind   string // "subscribe" or "cancel"
	Header burst.Header
	Body   string
	Reason string
}

// scriptedPOP is a POP that says what a script tells it to and writes down
// everything it is told: every session dialed, every subscribe and cancel.
type scriptedPOP struct {
	t        *testing.T
	net      *edge.PipeNetwork
	sessions chan *burst.ServerSession // as many as a script makes
	streams  chan *burst.ServerStream

	mu     sync.Mutex
	frames []upFrame
}

func newScriptedPOP(t *testing.T) *scriptedPOP {
	p := &scriptedPOP{
		t:        t,
		net:      edge.NewPipeNetwork(),
		sessions: make(chan *burst.ServerSession, 4),
		streams:  make(chan *burst.ServerStream, 4),
	}
	p.net.Register("pop", func(rwc io.ReadWriteCloser) {
		sess := burst.NewServerSession("pop", rwc, burst.ServerHandlerFuncs{
			Subscribe: func(ss *burst.ServerStream, sub burst.Subscribe) {
				p.record(upFrame{Kind: "subscribe", Header: sub.Header.Clone(), Body: string(sub.Body)})
				p.streams <- ss
			},
			Cancel: func(_ *burst.ServerStream, c burst.Cancel) {
				p.record(upFrame{Kind: "cancel", Reason: c.Reason})
			},
		})
		t.Cleanup(func() { _ = sess.Close() })
		p.sessions <- sess
	})
	return p
}

func (p *scriptedPOP) record(f upFrame) {
	p.mu.Lock()
	p.frames = append(p.frames, f)
	p.mu.Unlock()
}

func (p *scriptedPOP) nextSession() *burst.ServerSession {
	p.t.Helper()
	select {
	case s := <-p.sessions:
		return s
	case <-time.After(10 * time.Second):
		p.t.Fatal("no session reached the scripted POP")
		return nil
	}
}

func (p *scriptedPOP) nextStream() *burst.ServerStream {
	p.t.Helper()
	select {
	case ss := <-p.streams:
		return ss
	case <-time.After(10 * time.Second):
		p.t.Fatal("no stream reached the scripted POP")
		return nil
	}
}

func (p *scriptedPOP) send(ss *burst.ServerStream, deltas ...burst.Delta) {
	p.t.Helper()
	if err := ss.SendBatch(deltas...); err != nil {
		p.t.Fatal(err)
	}
}

// scriptedModel is one device model with one messenger stream through the
// scripted POP, as far as a script needs to see it.
type scriptedModel struct {
	applied func() uint64 // the highest payload seq handed to the stream so far
	ended   func() bool   // a termination has reached the stream
	redial  func()        // once the POP has cut the session: have the device dial again
}

const scriptUser = 999

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func openScriptedDevice(t *testing.T, n edge.Dialer) scriptedModel {
	d := device.New(device.Config{User: scriptUser, POPs: []string{"pop"}}, n, nil, nil)
	t.Cleanup(d.Close)
	if err := d.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	var applied atomic.Uint64
	go func() {
		for delta := range st.Updates {
			if delta.Seq > applied.Load() {
				applied.Store(delta.Seq)
			}
		}
	}()
	return scriptedModel{
		applied: applied.Load,
		ended:   func() bool { return d.Streams() == 0 },
		redial:  func() {}, // a device redials by itself
	}
}

func openScriptedFleet(t *testing.T, n edge.Dialer) scriptedModel {
	fleet, err := New(Config{
		Devices: 1,
		Areas: []Area{{App: apps.AppMessenger, Subscription: "messenger",
			Topic: string(apps.MailboxTopic(scriptUser)), User: scriptUser}},
		POPs:   []string{"pop"},
		Dialer: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	fleet.ConnectAll(0)
	return scriptedModel{
		applied: func() uint64 { return fleet.LastSeq(0) },
		ended:   func() bool { return fleet.Terminations.Value() == 1 },
		// A device whose every stream has ended is not redialed when its trunk
		// dies (it has nothing to re-attach, DESIGN.md §10): drop it.
		redial: func() {
			waitFor(t, "the trunk's death", func() bool { return fleet.TrunkDeaths.Value() == 1 })
			fleet.DropAt(0, time.Now())
		},
	}
}

// testShedEpisodeEquivalence plays each recovery script to BOTH models and
// compares every upstream frame they answer it with — subscribe and cancel,
// header and body. Recovery decides for both, so a difference here is a
// holder carrying the same answer out differently.
func testShedEpisodeEquivalence(t *testing.T) {
	marker := burst.FlowStatusDelta(burst.FlowDegraded, overload.ShedMarkerPrefix+"stream-admission")
	resumeState := func(seq uint64) burst.Delta {
		v := strconv.FormatUint(seq, 10)
		return burst.RewriteDelta(burst.Header{burst.HdrResumeSeq: v, burst.HdrCursor: "1." + v}, nil)
	}
	// opening sends payloads 1..n on the stream the model opens, each with
	// its resume state if the stream is to have resume tokens.
	opening := func(p *scriptedPOP, n uint64, tokens bool) *burst.ServerStream {
		srv := p.nextStream()
		for seq := uint64(1); seq <= n; seq++ {
			if tokens {
				p.send(srv, burst.PayloadDelta(seq, []byte("m")), resumeState(seq))
			} else {
				p.send(srv, burst.PayloadDelta(seq, []byte("m")))
			}
		}
		return srv
	}
	scripts := []struct {
		name  string
		play  func(t *testing.T, p *scriptedPOP, m scriptedModel)
		kinds []string // the upstream frames both models must answer with
		// What the last subscribe must carry ("" = must not carry the key).
		resumeSeq, cursor, body string
	}{
		{
			// The resync hole's script: ONE batch holding a shed marker, a
			// rewrite that over-claims both tokens (it describes payloads
			// admission shed) and a payload from behind the gap.
			name: "over-claiming rewrite",
			play: func(t *testing.T, p *scriptedPOP, m scriptedModel) {
				srv := opening(p, 5, true)
				p.send(srv, marker, resumeState(9), burst.PayloadDelta(9, []byte("m")))
				p.nextStream()
			},
			kinds: []string{"subscribe", "cancel", "subscribe"}, resumeSeq: "5", cursor: "1.5",
		},
		{
			name: "marker on a stream without resume tokens",
			play: func(t *testing.T, p *scriptedPOP, m scriptedModel) {
				srv := opening(p, 5, false)
				p.send(srv, marker, burst.PayloadDelta(6, []byte("m")))
				waitFor(t, "payload 6", func() bool { return m.applied() == 6 })
			},
			kinds: []string{"subscribe"},
		},
		{
			name: "two markers in one batch",
			play: func(t *testing.T, p *scriptedPOP, m scriptedModel) {
				srv := opening(p, 5, true)
				p.send(srv, marker, marker)
				p.nextStream()
			},
			kinds: []string{"subscribe", "cancel", "subscribe"}, resumeSeq: "5", cursor: "1.5",
		},
		{
			name: "body rewrite then marker",
			play: func(t *testing.T, p *scriptedPOP, m scriptedModel) {
				srv := opening(p, 2, true)
				p.send(srv, burst.RewriteDelta(nil, []byte("filter-v2")))
				p.send(srv, marker)
				p.nextStream()
			},
			kinds: []string{"subscribe", "cancel", "subscribe"}, resumeSeq: "2", cursor: "1.2", body: "filter-v2",
		},
		{
			// The application ended the stream: the device drops it and stays
			// connected, and a later re-dial does not bring it back.
			name: "termination, session cut, re-dial",
			play: func(t *testing.T, p *scriptedPOP, m scriptedModel) {
				sess := p.nextSession()
				srv := opening(p, 2, true)
				if err := srv.Terminate("conversation deleted"); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "the termination", m.ended)
				_ = sess.Close()
				m.redial()
				p.nextSession()
			},
			kinds: []string{"subscribe"},
		},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			run := func(open func(*testing.T, edge.Dialer) scriptedModel) []upFrame {
				p := newScriptedPOP(t)
				sc.play(t, p, open(t, p.net))
				time.Sleep(100 * time.Millisecond) // a frame too many would be on its way
				p.mu.Lock()
				defer p.mu.Unlock()
				return append([]upFrame(nil), p.frames...)
			}
			dev, mega := run(openScriptedDevice), run(openScriptedFleet)
			if !reflect.DeepEqual(dev, mega) {
				t.Errorf("the models answered differently:\n device %+v\n fleet  %+v", dev, mega)
			}
			var kinds []string
			for _, f := range dev {
				kinds = append(kinds, f.Kind)
			}
			if !reflect.DeepEqual(kinds, sc.kinds) {
				t.Fatalf("the device answered %v, want %v", kinds, sc.kinds)
			}
			last := dev[len(dev)-1]
			if last.Header[burst.HdrResumeSeq] != sc.resumeSeq || last.Header[burst.HdrCursor] != sc.cursor || last.Body != sc.body {
				t.Errorf("last subscribe carried resume-seq %q cursor %q body %q, want %q %q %q",
					last.Header[burst.HdrResumeSeq], last.Header[burst.HdrCursor], last.Body, sc.resumeSeq, sc.cursor, sc.body)
			}
		})
	}
}
