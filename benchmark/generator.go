package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
)

// generator drives one cluster through one script and checks every
// delivery against it.
//
// It holds no more connections than the box has cores: one burst.Session
// per POP carries every stream routed through that POP (as megadevice
// trunks do), and its HandleFrame decodes, timestamps and checks each
// delta inline on the session's single read goroutine. One goroutine
// publishes; it blocks on channels only — no polling, no timers.
//
// The loop is closed: at most sc.inflight mutations have deliveries
// outstanding, so the offered load tracks the system's capacity instead
// of queueing ahead of it.
type generator struct {
	sc    *script
	cl    *cluster
	tr    *tracer
	epoch time.Time

	sessions []*genSession
	streams  []*genStream // by script stream index

	starts    []atomic.Int64 // per op: Mutate call start, ns since epoch
	remaining []atomic.Int32 // per op: deliveries still outstanding

	// inflight holds one token per mutation with deliveries outstanding;
	// opening holds one per stream whose sticky rewrite has not come back.
	// The publishing goroutine puts tokens in, the session read goroutines
	// take them out when the last delivery (or the rewrite) arrives.
	inflight chan struct{}
	opening  chan struct{}

	// abort is closed by the watchdog when the run exceeds its deadline —
	// the only way a missing delivery can end a closed loop.
	abort chan struct{}

	opened, closed int64 // streams this generator expects the hosts to have opened / closed
	issued         int32 // ops whose Mutate has been called

	mutations      int64
	mutationErrors int64
}

// genSession is the generator's end of one POP session. Everything below
// the handler fields is touched only by the session's read goroutine while
// a segment runs, and read by the publishing goroutine only after a drain.
type genSession struct {
	g    *generator
	sess *burst.Session

	nextSID burst.StreamID
	bySID   []atomic.Pointer[genStream] // index = stream id

	// Appended to before the read goroutine releases the in-flight (or
	// opening) token that lets the publishing goroutine look at them.
	lat        []int64 // delivery latencies of the current segment, ns
	rtt        []int64 // subscribe round trips of the current segment, ns
	deliveries int64

	// Bumped by frames that release nothing, hence atomic.
	frames     atomic.Int64
	wrong      atomic.Int64 // deltas that were not the next expected one
	unexpected atomic.Int64 // deltas on a stream that expected nothing more
	control    atomic.Int64 // flow_status / termination deltas: never expected
}

type genStream struct {
	spec      *streamSpec
	sid       burst.StreamID
	subAt     atomic.Int64 // FrameSubscribe sent, ns since epoch
	cancelled atomic.Bool

	// read goroutine only, until a drain
	next int  // index into spec.expect
	open bool // sticky rewrite seen
}

func newGenerator(sc *script, cl *cluster, tr *tracer) (*generator, error) {
	g := &generator{
		sc: sc, cl: cl, tr: tr,
		epoch:     sim.RealClock{}.Now(),
		streams:   make([]*genStream, len(sc.streams)),
		starts:    make([]atomic.Int64, len(sc.ops)),
		remaining: make([]atomic.Int32, len(sc.ops)),
		inflight:  make(chan struct{}, sc.inflight),
		opening:   make(chan struct{}, max(sc.openInflight, 1)),
		abort:     make(chan struct{}),
	}
	if tr != nil {
		g.epoch = tr.epoch // one time base for the generator's and the seams' spans
	}
	for i := range sc.ops {
		g.remaining[i].Store(sc.ops[i].fanout)
	}
	perPOP := make([]int, 2)
	for i := range sc.streams {
		g.streams[i] = &genStream{spec: &sc.streams[i]}
		perPOP[sc.streams[i].pop]++
	}
	for pop := 0; pop < 2; pop++ {
		rwc, err := cl.dial.Dial(fmt.Sprintf("pop-%d", pop))
		if err != nil {
			g.close()
			return nil, err
		}
		s := &genSession{g: g, bySID: make([]atomic.Pointer[genStream], perPOP[pop]+1)}
		s.sess = burst.NewSession(fmt.Sprintf("generator-%d", pop), rwc, s)
		g.sessions = append(g.sessions, s)
	}
	return g, nil
}

func (g *generator) close() {
	for _, s := range g.sessions {
		_ = s.sess.Close()
		<-s.sess.Done()
	}
}

func (g *generator) now() int64 { return int64(sim.RealClock{}.Now().Sub(g.epoch)) }

var errAborted = errors.New("run exceeded its deadline with deliveries outstanding")

// acquire puts one token into ch, or fails if the watchdog fired.
func (g *generator) acquire(ch chan struct{}) error {
	select {
	case ch <- struct{}{}:
		return nil
	case <-g.abort:
		return errAborted
	}
}

// drain waits until every token in ch has been taken out again: fill the
// channel to capacity (which blocks until the outstanding work releases its
// slots), then empty it.
func (g *generator) drain(ch chan struct{}) error {
	for i := 0; i < cap(ch); i++ {
		if err := g.acquire(ch); err != nil {
			return err
		}
	}
	for i := 0; i < cap(ch); i++ {
		<-ch
	}
	return nil
}

// setup issues the set-up mutations and opens the initial streams one at a
// time, so that each subscribe round trip is measured unloaded.
func (g *generator) setup() error {
	for _, m := range g.sc.setupMutations {
		out, err := g.cl.mutate.MutateIn("", socialgraph.UserID(m.author), m.expr)
		g.mutations++
		if err != nil || (m.want != "" && string(out) != m.want) {
			g.mutationErrors++
			return fmt.Errorf("set-up mutation %s: got %q, %v (want %q)", m.expr, out, err, m.want)
		}
	}
	for _, si := range g.sc.setupOpens {
		if err := g.openStream(si); err != nil {
			return err
		}
		if err := g.drain(g.opening); err != nil {
			return err
		}
	}
	g.settle()
	return nil
}

// openStream cancels the incarnation the stream replaces, then subscribes.
func (g *generator) openStream(si int32) error {
	if err := g.acquire(g.opening); err != nil {
		return err
	}
	st := g.streams[si]
	s := g.sessions[st.spec.pop]
	if st.spec.replaces >= 0 {
		old := g.streams[st.spec.replaces]
		old.cancelled.Store(true)
		if err := s.sess.SendMsg(burst.FrameCancel, old.sid, burst.Cancel{Reason: "scrolled away"}); err != nil {
			return err
		}
		g.closed++
	}
	s.nextSID++
	st.sid = s.nextSID
	s.bySID[st.sid].Store(st)
	g.opened++
	st.subAt.Store(g.now())
	return s.sess.SendMsg(burst.FrameSubscribe, st.sid, burst.Subscribe{Header: burst.Header{
		burst.HdrApp:          st.spec.app,
		burst.HdrSubscription: st.spec.sub,
		burst.HdrUser:         strconv.FormatUint(st.spec.user, 10),
	}})
}

// settle returns once every stream the generator opened is open on its
// host (topics registered with Pylon) and every stream it cancelled is
// closed there. The sticky rewrite proves the subscribe reached the host,
// not that the host's instance loop has run the open; Quiesce drains the
// loops, and the host's own opened/closed counters say when that included
// the work in question (a cancel may still be crossing the proxies).
func (g *generator) settle() {
	for {
		g.cl.quiesce()
		if g.cl.streamsOpened() >= g.opened && g.cl.streamsClosed() >= g.closed {
			return
		}
		select {
		case <-g.abort:
			return
		default:
			runtime.Gosched()
		}
	}
}

// runCycle performs one churn step and one publish step, then waits for
// every delivery the publish step owes.
func (g *generator) runCycle(c cycle) error {
	if len(c.opens) > 0 {
		for _, si := range c.opens {
			if err := g.openStream(si); err != nil {
				return err
			}
		}
		if err := g.drain(g.opening); err != nil {
			return err
		}
		g.settle()
	}
	for i := c.from; i < c.to; i++ {
		if err := g.acquire(g.inflight); err != nil {
			return err
		}
		o := &g.sc.ops[i]
		g.issued = i + 1
		sp := g.tr.beginMutate(i)
		g.starts[i].Store(g.now())
		_, err := g.cl.mutate.MutateIn("", socialgraph.UserID(o.author), o.expr)
		g.tr.endMutate(sp)
		g.mutations++
		if err != nil {
			g.mutationErrors++
			return fmt.Errorf("mutation %s: %w", o.expr, err)
		}
	}
	return g.drain(g.inflight)
}

func (g *generator) runSegment(seg segment) error {
	for _, c := range seg {
		if err := g.runCycle(c); err != nil {
			return err
		}
	}
	return nil
}

// --- burst.FrameHandler ---------------------------------------------------

// delivered is the union of the fields the reference needs from the two
// payload shapes (apps.CommentPayload, apps.MessagePayload).
type delivered struct {
	Text      string `json:"text"`
	Seq       uint64 `json:"seq"`
	CommentID uint64 `json:"comment_id"`
}

func (s *genSession) HandleFrame(f burst.Frame) {
	if f.Type != burst.FrameBatch {
		return
	}
	now := s.g.now()
	s.frames.Add(1)
	var st *genStream
	if int(f.SID) < len(s.bySID) {
		st = s.bySID[f.SID].Load()
	}
	if st == nil || st.cancelled.Load() {
		return // a late batch for a stream the generator already cancelled
	}
	batch, err := burst.DecodeBatch(f.Payload)
	if err != nil {
		s.wrong.Add(1)
		return
	}
	for i := range batch.Deltas {
		d := &batch.Deltas[i]
		switch d.Type {
		case burst.DeltaPayload:
			s.payload(st, d, now)
		case burst.DeltaRewriteRequest:
			if !st.open && d.Header[burst.HdrStickyBRASS] != "" {
				st.open = true
				s.rtt = append(s.rtt, now-st.subAt.Load())
				<-s.g.opening
			}
		default:
			s.control.Add(1)
		}
	}
}

// payload checks one payload delta against the reference: it must be the
// next op this stream expects, carrying that op's text (and, for a mailbox,
// the next contiguous sequence number).
func (s *genSession) payload(st *genStream, d *burst.Delta, now int64) {
	g := s.g
	if st.next >= len(st.spec.expect) {
		s.unexpected.Add(1)
		return
	}
	var p delivered
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		s.wrong.Add(1)
		return
	}
	op := st.spec.expect[st.next]
	key := p.CommentID
	if st.spec.app == apps.AppMessenger {
		key = p.Seq
		if p.Seq != uint64(st.next)+1 || d.Seq != p.Seq {
			s.wrong.Add(1)
			return
		}
	}
	if p.Text != g.sc.ops[op].text {
		s.wrong.Add(1)
		return
	}
	st.next++
	s.deliveries++
	s.lat = append(s.lat, now-g.starts[op].Load())
	g.tr.downstream(st.spec.user, key, now)
	if g.remaining[op].Add(-1) == 0 {
		<-g.inflight
	}
}

func (s *genSession) HandleClose(error) {}

// --- reference check --------------------------------------------------------

// failures is the reference check's verdict on one pass.
type failures struct {
	mutationErrors int64
	neverOpened    int64 // streams whose sticky rewrite never arrived
	missing        int64 // deliveries expected and not received
	wrong          int64 // out of order, duplicated ahead of sequence, or wrong payload
	unexpected     int64 // deliveries beyond what a stream expected (duplicates)
	control        int64 // flow_status / termination deltas
}

func (f failures) total() int64 {
	return f.mutationErrors + f.neverOpened + f.missing + f.wrong + f.unexpected + f.control
}

func (f failures) String() string {
	return fmt.Sprintf("mutation errors %d, streams never opened %d, deliveries missing %d, wrong/out-of-order %d, duplicated %d, unexpected control deltas %d",
		f.mutationErrors, f.neverOpened, f.missing, f.wrong, f.unexpected, f.control)
}

// check compares what arrived with what the script says must have arrived
// for the ops issued so far. It runs after a drain, so the read goroutines
// are idle — or after the watchdog fired, when what is still outstanding is
// what went missing.
func (g *generator) check() (attempted int64, f failures) {
	f.mutationErrors = g.mutationErrors
	attempted = g.mutations + g.opened
	for _, s := range g.sessions {
		f.wrong += s.wrong.Load()
		f.unexpected += s.unexpected.Load()
		f.control += s.control.Load()
	}
	for _, st := range g.streams {
		if st.sid == 0 {
			continue // an incarnation of a segment that was not run
		}
		if !st.open {
			f.neverOpened++
		}
		want, _ := slices.BinarySearch(st.spec.expect, g.issued)
		attempted += int64(want)
		if st.next < want {
			f.missing += int64(want - st.next)
		}
	}
	return attempted, f
}
