package device

import (
	"strconv"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/durlog"
)

// stalledStream subscribes env's device with extra header fields, stalls the
// app — nobody calls Next — while the POP sends the payloads 1..n, one batch
// each, and waits until the device's queue has applied them all, shedding
// what did not fit. With rewrite set, each batch also rewrites the stream's
// cursor to its payload, as Messenger's do.
func stalledStream(t *testing.T, env *devEnv, extra burst.Header, n int, rewrite bool) (*Stream, *burst.ServerStream) {
	t.Helper()
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("app", "s", extra)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	srv := env.popA.stream(0)
	for seq := 1; seq <= n; seq++ {
		deltas := []burst.Delta{burst.PayloadDelta(uint64(seq), []byte("m"))}
		if rewrite {
			deltas = append(deltas, burst.RewriteDelta(burst.Header{burst.HdrCursor: "1." + strconv.Itoa(seq)}, nil))
		}
		if err := srv.SendBatch(deltas...); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	cur := st.cur
	st.mu.Unlock()
	waitFor(t, "every batch applied", func() bool { return cur.LastSeq() == uint64(n) })
	return st, srv
}

// readJudged reads st as the app does, judging its payloads against its shed
// markers (bursttest.GapRule) and handing each delta to each, until done
// holds and no shed episode is open. After 5 s the rule's close check fails
// the test if an episode is what it waits for.
func readJudged(t *testing.T, st *Stream, done func() bool, each func(burst.Delta)) {
	t.Helper()
	rule := bursttest.NewGapRule(t)
	ev := bursttest.Events(t, st)
	for deadline := time.After(5 * time.Second); !done() || rule.Open(); {
		select {
		case d, ok := <-ev:
			if !ok {
				t.Fatal("the stream ended")
			}
			switch d.Type {
			case burst.DeltaPayload:
				rule.Payload(d.Seq)
			case burst.DeltaFlowStatus:
				rule.Flow(d.FlowDetail)
			}
			each(d)
		case <-deadline:
			rule.Close()
			t.Fatal("the app read on for 5 s")
		}
	}
}

// dropped returns the payload batches env's device queue has shed.
func dropped(env *devEnv) int64 {
	env.dev.mu.Lock()
	defer env.dev.mu.Unlock()
	return env.dev.client.Dropped.Value()
}

// A stalled app on a stream with a resume token loses the oldest payloads to
// its one bounded queue. The queue announces the shed where it lies, so when
// the app reads on, the stream reopens once from a resume point below every
// seq the app lacks, and the replay closes the gap.
func TestStalledAppResumesBelowItsGap(t *testing.T) {
	env := newDevEnv(t)
	const sent = 400
	st, _ := stalledStream(t, env, burst.Header{burst.HdrCursor: "1.0"}, sent, true)
	if got := dropped(env); got != sent-256 {
		t.Fatalf("the queue shed %d payloads, want %d", got, sent-256)
	}

	have := map[uint64]bool{}
	for {
		d := next(t, st)
		if d.Type == burst.DeltaPayload {
			have[d.Seq] = true
		}
		// The reopen's, not the queue's own shed-recovered marker, which
		// reaches the app too when it is read before the reopen has run:
		// Next has moved to the new incarnation.
		if d.Type == burst.DeltaFlowStatus && d.Flow == burst.FlowRecovered && d.FlowDetail != burst.QueueRecoveredDetail {
			break
		}
	}
	lacking := uint64(1)
	for have[lacking] {
		lacking++
	}
	if got := env.dev.Resumes.Value(); got != 1 {
		t.Errorf("Resumes = %d, want 1", got)
	}
	if got := resumePoint(st); got >= lacking {
		t.Errorf("resume point %d, not below seq %d, the lowest the app lacks", got, lacking)
	}
	waitFor(t, "the reopen on the POP", func() bool { return env.popA.stream(1) != nil })
	srv := env.popA.stream(1)
	c, ok := durlog.Parse(srv.Request().Header[burst.HdrCursor])
	if from := c.Seq; !ok || from >= lacking {
		t.Fatalf("the reopen resumes from %q, want below %d", srv.Request().Header[burst.HdrCursor], lacking)
	}
	// The serving side replays everything after the resume point in one
	// batch, as a BRASS does.
	var replay []burst.Delta
	for seq := c.Seq + 1; seq <= sent; seq++ {
		replay = append(replay, burst.PayloadDelta(seq, []byte("m")))
	}
	if err := srv.SendBatch(replay...); err != nil {
		t.Fatal(err)
	}
	for len(have) < sent {
		if d := next(t, st); d.Type == burst.DeltaPayload {
			have[d.Seq] = true
		}
	}
}

// A stream without a resume token has nothing to reopen from: it hears its
// queue's shed as a degraded/recovered pair, in that order, around the
// payloads the queue kept.
func TestStalledAppWithoutResumeTokenSeesShedThenRecovery(t *testing.T) {
	env := newDevEnv(t)
	const sent = 400
	st, _ := stalledStream(t, env, nil, sent, false)

	var flows []string
	payloads := 0
	readJudged(t, st, func() bool { return len(flows) == 2 }, func(d burst.Delta) {
		switch d.Type {
		case burst.DeltaFlowStatus:
			if len(flows) == 0 && d.Flow != burst.FlowDegraded || len(flows) == 1 && d.Flow != burst.FlowRecovered {
				t.Errorf("flow %v %q out of order", d.Flow, d.FlowDetail)
			}
			flows = append(flows, d.FlowDetail)
		case burst.DeltaPayload:
			payloads++
		}
	})
	if len(flows) != 2 || flows[0] != burst.QueueShedDetail || flows[1] != burst.QueueRecoveredDetail {
		t.Errorf("flow statuses %q, want the shed marker, then its recovery", flows)
	}
	if int64(payloads)+dropped(env) != sent {
		t.Errorf("%d payloads handed out + %d shed, want %d", payloads, dropped(env), sent)
	}
	if env.dev.Resumes.Value() != 0 || env.dev.ResumesCoalesced.Value() != 0 {
		t.Error("a stream with no resume token reopened")
	}
}

// Regression for the slow-device control-delta bug: the apply path used to
// best-effort-drop WHOLE batches when a stream's buffer was full — control
// deltas included — so a device that stalled while degraded could lose the
// FlowRecovered notice and show "degraded" forever. Now only payload deltas
// shed, in the device's one queue, and the app reads its flow statuses in
// order with its payloads: the last code it sees is FlowRecovered, and every
// payload sent is either handed out or counted as shed.
func TestSlowDeviceNeverLosesFlowRecovered(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	srv := env.popA.stream(0)

	// The app does not read while the server floods it: stale FlowDegraded
	// notices and payloads overfill the client stream's queue (256 batches).
	const degraded, payloads = 40, 800
	for i := 0; i < degraded; i++ {
		if err := srv.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded, "upstream pressure")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < payloads; i++ {
		if err := srv.SendBatch(burst.PayloadDelta(uint64(i+1), []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SendBatch(burst.FlowStatusDelta(burst.FlowRecovered, "pressure gone")); err != nil {
		t.Fatal(err)
	}
	// SendBatch returns once its batch is queued for the POP session's
	// writer, not once the device has it: the flood is over when the device
	// has applied the last payload.
	st.mu.Lock()
	cur := st.cur
	st.mu.Unlock()
	waitFor(t, "every payload applied", func() bool { return cur.LastSeq() == payloads })
	// The slow app reads on until it has seen the server's recovery notice
	// and the queue's, appended once the app has read it down to half,
	// which closes its shed episode.
	handed, flows, gone := 0, 0, false
	readJudged(t, st, func() bool { return gone }, func(d burst.Delta) {
		switch d.Type {
		case burst.DeltaFlowStatus:
			flows++
			gone = gone || d.FlowDetail == "pressure gone"
		case burst.DeltaPayload:
			handed++
		}
	})
	select { // so the last code the app sees is FlowRecovered
	case d := <-bursttest.Events(t, st):
		t.Errorf("%+v after both recovery notices", d)
	case <-time.After(50 * time.Millisecond):
	}
	if flows < degraded+3 {
		t.Errorf("the app saw %d flow statuses, want all %d degraded notices and the shed's", flows, degraded)
	}
	if shed := dropped(env); int64(handed)+shed != payloads || shed == 0 {
		t.Errorf("%d payloads sent: %d handed out + %d shed", payloads, handed, shed)
	}
}
