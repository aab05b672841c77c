package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
)

// DurlogResume reruns the overload storm on the LIVE stack twice — once in
// the pre-log posture and once with the durable per-topic log enabled for
// Messenger, where the BRASS appends every delivery decision to its edge
// log. The device repairs a shed gap the same way in both: it reopens the
// stream from its stored request. What differs is where the serving BRASS
// finds the missing suffix — the WAS mailbox, or its own log — so the run
// reports each posture's backend mailbox reads beside the log's own
// counters; the view must converge gap-free in both.
func DurlogResume(seed int64) Result {
	const (
		authorUID = socialgraph.UserID(90)
		viewerUID = socialgraph.UserID(10)
		storm     = 150
		deadline  = 30 * time.Second
	)
	sched := sim.RealClock{}

	type outcome struct {
		sent         uint64
		sheds        int64
		resumes      int64
		coalesced    int64
		mailboxReads int64 // WAS queries after the baseline delivery
		logResumes   int64
		logCatchUp   int64
		logAppends   int64
		converged    bool
		fail         error
	}

	run := func(durable bool) (o outcome) {
		cfg := core.DefaultConfig()
		cfg.Graph.Users = 100
		cfg.Graph.BlockProb = 0
		// The aggressive overload posture from the chaos suite: a
		// per-stream delivery budget far under the storm rate guarantees
		// shedding, which is what both repair paths exist to fix.
		cfg.Overload = core.OverloadConfig{
			LoopQueueDepth:     16,
			StreamDeliverRate:  25,
			StreamDeliverBurst: 4,
		}
		if durable {
			cfg.Durlog = &core.DurlogConfig{}
		}
		c, err := core.NewCluster(cfg, nil)
		if err != nil {
			o.fail = err
			return o
		}
		defer c.Close()

		author := c.NewDevice(authorUID)
		viewer := c.NewDevice(viewerUID)
		defer author.Close()
		defer viewer.Close()
		if err := viewer.Connect(); err != nil {
			o.fail = err
			return o
		}
		st, err := viewer.Subscribe(apps.AppMessenger, "messenger", nil)
		if err != nil {
			o.fail = err
			return o
		}

		var (
			mu   sync.Mutex
			seqs = make(map[uint64]bool)
		)
		hasAll := func(n uint64) bool {
			mu.Lock()
			defer mu.Unlock()
			for s := uint64(1); s <= n; s++ {
				if !seqs[s] {
					return false
				}
			}
			return true
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d, ok := st.Next(); ok; d, ok = st.Next() {
				var m apps.MessagePayload
				if d.Type == burst.DeltaPayload && json.Unmarshal(d.Payload, &m) == nil {
					mu.Lock()
					seqs[m.Seq] = true
					mu.Unlock()
				}
			}
		}()
		var thread uint64
		out, err := author.Mutate(fmt.Sprintf(`createThread(members: "%d,%d")`, authorUID, viewerUID))
		if err != nil {
			o.fail = err
			return o
		}
		if err := json.Unmarshal(out, &thread); err != nil {
			o.fail = fmt.Errorf("createThread replied %q: %w", out, err)
			return o
		}

		if !WaitUntil(sched, deadline, func() bool {
			return len(c.Pylon.Subscribers(apps.MailboxTopic(viewerUID))) >= 1
		}) {
			o.fail = errors.New("subscription never registered")
			return o
		}

		send := func(text string) {
			if _, err := author.Mutate(fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, thread, text)); err == nil {
				o.sent++
			}
		}
		send("baseline")
		if !WaitUntil(sched, deadline, func() bool { return hasAll(o.sent) }) {
			o.fail = errors.New("baseline never delivered")
			return o
		}
		queriesBase := c.WAS.Queries.Value()

		for i := 0; i < storm; i++ {
			send(fmt.Sprintf("storm-%d", i))
		}

		// Post-storm trickle: each message is under the admission rate, so
		// it lands and closes open shed episodes while the resumes backfill
		// what the storm dropped, until the view is gap-free.
		limit := sched.Now().Add(deadline)
		for !hasAll(o.sent) && sched.Now().Before(limit) {
			send("trickle")
			sim.Sleep(sched, 50*time.Millisecond)
		}
		o.converged = hasAll(o.sent)

		for _, h := range c.Hosts {
			o.sheds += h.StreamSheds.Value() + h.LoopOverflows.Value()
			o.logResumes += h.LogResumes.Value()
			o.logCatchUp += h.LogCatchUpDeltas.Value()
			if l := h.DurLog(); l != nil {
				o.logAppends += l.Appends.Value()
			}
		}
		o.resumes = viewer.Resumes.Value()
		o.coalesced = viewer.ResumesCoalesced.Value()
		o.mailboxReads = c.WAS.Queries.Value() - queriesBase

		viewer.Close()
		author.Close()
		wg.Wait()
		return o
	}

	off := run(false)
	on := run(true)

	r := Result{ID: "durlog", Title: fmt.Sprintf(
		"Durable-log resume: overload storm (%d msgs over a 25/s stream budget), catch-up from the WAS mailbox vs the edge log", storm)}
	if off.fail != nil || on.fail != nil {
		r.Err = fmt.Errorf("log off: %v; log on: %v", off.fail, on.fail)
		return r
	}
	b := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	r.AddRow("gap-free convergence (off / on)", "-",
		fmt.Sprintf("%s / %s", b(off.converged), b(on.converged)),
		"both postures must close every shed gap")
	r.AddRow("stream sheds (off / on)", "-",
		fmt.Sprintf("%d / %d", off.sheds, on.sheds),
		"the storm must actually shed for the comparison to mean anything")
	r.AddRow("WAS mailbox reads after the baseline, log off", "-", fmt.Sprintf("%d", off.mailboxReads),
		"every resume re-reads the mailbox from the backend")
	r.AddRow("WAS mailbox reads after the baseline, log on", "-", fmt.Sprintf("%d", on.mailboxReads),
		"resumes replay from the edge log; what remains is the BRASS repairing loop-queue drops")
	r.AddRow("device resumes (off / on)", "-",
		fmt.Sprintf("%d / %d", off.resumes, on.resumes),
		"cancel + resubscribe from the frozen resume point")
	r.AddRow("shed markers coalesced (off / on)", "-",
		fmt.Sprintf("%d / %d", off.coalesced, on.coalesced),
		"markers absorbed by an already-pending resume")
	r.AddRow("log catch-up deltas, log on", "-", fmt.Sprintf("%d", on.logCatchUp),
		"payloads served from the durable log's retained window")
	r.AddRow("log resumes served, log on", "-", fmt.Sprintf("%d", on.logResumes), "")
	r.AddRow("log appends, log on", "-", fmt.Sprintf("%d", on.logAppends),
		"every delivery decision journaled on the publish path")
	if !off.converged || !on.converged {
		r.Err = fmt.Errorf("the view did not converge gap-free (log off: %s, log on: %s)", b(off.converged), b(on.converged))
	}
	return r
}
