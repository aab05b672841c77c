package apps

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/durlog"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// Messenger is the application that needs reliable, in-order delivery on
// top of Bladerunner's best-effort substrate (paper §4). Each user has a
// mailbox; every message to a thread is appended to each member's mailbox
// with the mailbox's next consecutive sequence number. Gaps are therefore
// detectable at both the BRASS and the device, and the BRASS repairs them
// by querying the WAS — so the device rarely has to.
//
// Resumption state (the last sequence number pushed and, with the durable
// log on, its cursor) is persisted in the stream header via rewrites: after
// a failure or a shed marker the resubscribe arrives carrying both tokens,
// lowered by the device to what it actually has, and the (possibly
// different) serving BRASS replays what is missing — from its log if the
// cursor proves continuity, else from the mailbox — before resuming live
// delivery (resume).
type Messenger struct {
	mu      sync.Mutex
	threads map[uint64][]socialgraph.UserID // thread → members
	mailbox map[socialgraph.UserID]*mailboxState
	nextTID uint64
}

type mailboxState struct {
	ref     tao.ObjID // TAO object anchoring the mailbox assoc list
	nextSeq uint64
}

// MessagePayload is the device-facing message JSON.
type MessagePayload struct {
	Seq    uint64 `json:"seq"`
	Thread uint64 `json:"thread"`
	Author uint64 `json:"author"`
	Text   string `json:"text"`
}

// MailboxTopic returns the Pylon topic for a user's mailbox.
func MailboxTopic(uid socialgraph.UserID) pylon.Topic {
	return idTopic("/MB/", uint64(uid))
}

// NewMessenger registers the WAS half and returns the application.
func NewMessenger(w Registrar) *Messenger {
	a := &Messenger{
		threads: make(map[uint64][]socialgraph.UserID),
		mailbox: make(map[socialgraph.UserID]*mailboxState),
	}

	// createThread(members: "1,2,3") → thread id.
	w.RegisterMutation("createThread", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		raw, err := call.StringArg("members")
		if err != nil {
			return nil, err
		}
		var members []socialgraph.UserID
		for _, part := range strings.Split(raw, ",") {
			uid, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("messenger: bad member %q", part)
			}
			members = append(members, socialgraph.UserID(uid))
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("messenger: thread needs members")
		}
		a.mu.Lock()
		a.nextTID++
		tid := a.nextTID
		a.threads[tid] = members
		a.mu.Unlock()
		return tid, nil
	})

	// sendMessage(threadID: T, text: "..."): append to every member's
	// mailbox with that mailbox's next sequence number, then publish one
	// event per member mailbox.
	w.RegisterMutation("sendMessage", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		tid, err := call.Uint64Arg("threadID")
		if err != nil {
			return nil, err
		}
		text, err := call.StringArg("text")
		if err != nil {
			return nil, err
		}
		a.mu.Lock()
		members := a.threads[tid]
		a.mu.Unlock()
		if members == nil {
			return nil, fmt.Errorf("messenger: unknown thread %d", tid)
		}
		ref := ctx.Srv.TAO.ObjectAdd("message", tao.Props{{"text", text},
			{"author", strconv.FormatUint(uint64(ctx.Viewer), 10)}, {"thread", strconv.FormatUint(tid, 10)}})
		for _, member := range members {
			seq := a.appendToMailbox(ctx, member, ref)
			ctx.Publish(pylon.Event{Topic: MailboxTopic(member), Ref: uint64(ref), Seq: seq, Author: uint64(ctx.Viewer)}, false)
		}
		return uint64(ref), nil
	})

	// mailboxSince(seq: S) → messages with sequence > S, oldest first.
	// The BRASS uses this for gap repair and resume catch-up.
	w.RegisterQuery("mailboxSince", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		since, err := call.Uint64Arg("seq")
		if err != nil {
			return nil, err
		}
		return a.mailboxSince(ctx, ctx.Viewer, since), nil
	})

	w.RegisterSubscription("messenger", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		return []pylon.Topic{MailboxTopic(ctx.Viewer)}, nil
	})

	w.RegisterPayload(AppMessenger, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		obj, err := ctx.Reader().ObjectGet(ref)
		if err != nil {
			return nil, err
		}
		return a.payloadFromObj(obj, ev.Seq), nil
	})
	return a
}

func (a *Messenger) payloadFromObj(obj tao.Object, seq uint64) MessagePayload {
	author, _ := strconv.ParseUint(obj.Data.Get("author"), 10, 64)
	thread, _ := strconv.ParseUint(obj.Data.Get("thread"), 10, 64)
	return MessagePayload{Seq: seq, Thread: thread, Author: author, Text: obj.Data.Get("text")}
}

// appendToMailbox assigns the next sequence number and stores the mailbox
// association in TAO (assoc data = seq).
func (a *Messenger) appendToMailbox(ctx was.Ctx, member socialgraph.UserID, ref tao.ObjID) uint64 {
	a.mu.Lock()
	mb := a.mailbox[member]
	if mb == nil {
		anchor := ctx.Srv.TAO.ObjectAdd("mailbox", tao.Props{
			{"owner", strconv.FormatUint(uint64(member), 10)},
		})
		mb = &mailboxState{ref: anchor}
		a.mailbox[member] = mb
	}
	mb.nextSeq++
	seq := mb.nextSeq
	anchor := mb.ref
	a.mu.Unlock()
	ctx.Srv.TAO.AssocAdd(anchor, "mailbox_msg", ref, ctx.Now, strconv.FormatUint(seq, 10))
	return seq
}

// mailboxSince reads messages with seq > since, oldest first.
//
// This read deliberately stays on the TAO LEADER, not the region-local
// follower (ctx.Reader()): it is the reliable catch-up path that closes
// delivery gaps after failover, and a follower stale by one replication
// lag could silently drop the most recent messages — turning the gap-free
// resume guarantee into a best-effort one. Payload resolution of
// individual (immutable, created-once) message objects is safe on
// followers; the authoritative mailbox index is not. Catch-up is a delivery
// like any other: a message whose author the owner may not see is skipped.
func (a *Messenger) mailboxSince(ctx was.Ctx, owner socialgraph.UserID, since uint64) []MessagePayload {
	a.mu.Lock()
	mb := a.mailbox[owner]
	a.mu.Unlock()
	if mb == nil {
		return nil
	}
	assocs := ctx.Srv.TAO.AssocRange(mb.ref, "mailbox_msg", 0, 0) // newest first
	out := make([]MessagePayload, 0, len(assocs))
	for i := len(assocs) - 1; i >= 0; i-- { // reverse to oldest-first
		seq, _ := strconv.ParseUint(assocs[i].Data, 10, 64)
		if seq <= since {
			continue
		}
		obj, err := ctx.Srv.TAO.ObjectGet(assocs[i].ID2)
		if err != nil {
			continue
		}
		if m := a.payloadFromObj(obj, seq); ctx.Srv.PrivacyCheck(owner, socialgraph.UserID(m.Author)) {
			out = append(out, m)
		}
	}
	return out
}

// Name implements brass.Application.
func (a *Messenger) Name() string { return AppMessenger }

type messengerStream struct {
	lastSeq uint64
	// topic is the stream's resolved mailbox topic — the key it logs
	// deliveries and serves cursor catch-ups under when the host's
	// durable log is enabled for Messenger.
	topic pylon.Topic
	// patch is the stream's one resume patch, refilled per delivery: SendBatch
	// merges it by copy and encodes it before Push returns.
	patch burst.Header
}

type messengerInstance struct {
	app *Messenger
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *Messenger) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &messengerInstance{app: a, rt: rt}
}

func (in *messengerInstance) OnStreamOpen(st *brass.Stream) error {
	topics, err := openTopics(in.rt, st)
	if err != nil {
		return err
	}
	state := &messengerStream{patch: make(burst.Header, 2)}
	st.State = state
	if len(topics) > 0 {
		state.topic = topics[0]
		in.rt.LogOpen(state.topic)
	}
	in.resume(st, state)
	return nil
}

// resume serves a stream open: it replays everything after the request's
// resume point and persists the new resume state, the one place that chooses
// between the two sources. The resume point is the LOWER of the two tokens
// the request carries: the device lowers both to what it actually has before
// it resubscribes, so neither may be used to skip what the other admits is
// missing. The source is the host's durable log when the cursor proves
// continuity — gap-free, no backend read — and otherwise (no log, no cursor,
// a malformed one, or durlog.ErrCursorExpired: a cursor is NEVER repaired
// into a fabricated one) the mailbox. Either way the suffix goes out with
// its resume state as ONE batch that bypasses per-stream admission (see
// Stream.PushCatchUp). The input-only sentinels keep their meaning: "live"
// skips the backlog, "earliest" replays the whole retained window.
func (in *messengerInstance) resume(st *brass.Stream, state *messengerStream) {
	floor, seqErr := strconv.ParseUint(st.Header(burst.HdrResumeSeq), 10, 64)
	// The Log* accessors answer "no" for a host or topic without a log, so
	// every log branch below falls through to the mailbox by itself.
	raw := st.Header(burst.HdrCursor)
	c, ok := durlog.Parse(raw)
	switch raw {
	case durlog.SentinelLive:
		if tail, live := in.rt.LogTail(state.topic); live {
			state.lastSeq = max(floor, tail.Seq)
			_ = st.Rewrite(in.resumePatch(state, state.lastSeq), nil)
			return
		}
	case durlog.SentinelEarliest:
		c, ok = in.rt.LogEarliest(state.topic)
	}
	if ok && (seqErr != nil || c.Seq < floor) {
		floor = c.Seq
	}
	state.lastSeq = floor

	var deltas []burst.Delta
	fromLog := false
	if ok {
		entries, _, err := in.rt.LogRead(state.topic, durlog.Cursor{Epoch: c.Epoch, Seq: floor})
		fromLog = err == nil
		for _, e := range entries {
			deltas = append(deltas, burst.PayloadDelta(e.Seq, e.Payload))
		}
	}
	if !fromLog {
		msgs, _ := in.queryMailbox(st.Viewer, floor) // a failed read replays nothing; see below
		for _, m := range msgs {
			b, _ := json.Marshal(m)
			in.rt.LogAppend(state.topic, m.Seq, b) // as in catchUp
			deltas = append(deltas, burst.PayloadDelta(m.Seq, b))
		}
	}
	last := floor
	if n := len(deltas); n > 0 {
		last = deltas[n-1].Seq
	}
	// If nothing could be read or sent lastSeq stays at the floor, and the
	// next live event finds the gap and repairs it through catchUp.
	if st.PushCatchUp(append(deltas, burst.RewriteDelta(in.resumePatch(state, last), nil))...) == nil {
		state.lastSeq = last
	}
}

// resumePatch is the header patch that persists seq as the stream's resume
// state. With the durable log enabled both tokens (WAS sequence + log
// cursor) travel in ONE delta: a failover between two separate single-field
// rewrites could strand a stream carrying a seq and a cursor from different
// moments. Without the log, only the sequence field. Both values are slices
// of one string: one allocation per patch (DESIGN.md §7e rule 1a).
func (in *messengerInstance) resumePatch(state *messengerStream, seq uint64) burst.Header {
	b := strconv.AppendUint(make([]byte, 0, 64), seq, 10)
	n := len(b)
	if in.rt.LogEnabled() && state.topic != "" {
		if tail, ok := in.rt.LogTail(state.topic); ok {
			b = tail.AppendTo(b)
		}
	}
	s := string(b)
	state.patch[burst.HdrResumeSeq] = s[:n]
	if n < len(s) { // a log never drops a topic: a stream's patch has a cursor always or never
		state.patch[burst.HdrCursor] = s[n:]
	}
	return state.patch
}

// queryMailbox asks the WAS for viewer's messages after since, oldest first.
func (in *messengerInstance) queryMailbox(viewer socialgraph.UserID, since uint64) ([]MessagePayload, error) {
	raw, err := in.rt.Query(viewer, fmt.Sprintf("mailboxSince(seq: %d)", since))
	if err != nil {
		return nil, err
	}
	var msgs []MessagePayload
	err = json.Unmarshal(raw, &msgs)
	return msgs, err
}

// catchUp repairs a gap the BRASS itself detected on the live path: it polls
// the mailbox for messages after state.lastSeq and pushes them in order,
// through admission like any live delivery.
func (in *messengerInstance) catchUp(st *brass.Stream, state *messengerStream) {
	msgs, err := in.queryMailbox(st.Viewer, state.lastSeq)
	if err != nil {
		return
	}
	for _, m := range msgs {
		if m.Seq <= state.lastSeq {
			continue
		}
		b, _ := json.Marshal(m)
		if state.topic != "" {
			// The log records every delivery decision, including the ones
			// made from a WAS read: the next resume on this topic replays
			// them from the edge instead.
			in.rt.LogAppend(state.topic, m.Seq, b)
		}
		if st.PushPayload(pylon.Event{}, m.Seq, b) == nil {
			state.lastSeq = m.Seq
		}
	}
	_ = st.Rewrite(in.resumePatch(state, state.lastSeq), nil)
}

func (in *messengerInstance) OnStreamClose(st *brass.Stream, reason string) { st.State = nil }

func (in *messengerInstance) OnEvent(ev pylon.Event) {
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*messengerStream)
		if !ok {
			continue
		}
		switch {
		case ev.Seq <= state.lastSeq:
			// Duplicate (e.g. Pylon patch-forwarding): drop.
			st.Filtered()
		case ev.Seq == state.lastSeq+1:
			// In order: fetch and push. The log append happens BEFORE the
			// push and regardless of its admission outcome: Push reports
			// success even when the per-stream bucket sheds the payload, so
			// the log is what makes a shed delta recoverable by the
			// device's later cursor resume. The payload and the resume
			// state it implies are one decision and travel as ONE batch:
			// applied all-or-nothing (§3.5), so the device's stored resume
			// state cannot lag the payload it applied; admission sheds
			// only the payload, never the rewrite.
			payload, err := st.FetchPayload(ev)
			if err != nil {
				st.Filtered()
				continue
			}
			in.rt.LogAppend(ev.Topic, ev.Seq, payload)
			if st.Push(brass.PayloadFor(ev, ev.Seq, payload),
				burst.RewriteDelta(in.resumePatch(state, ev.Seq), nil)) == nil {
				state.lastSeq = ev.Seq
			}
		default:
			// Gap: a prior event was dropped somewhere. The BRASS
			// repairs it from the mailbox so the device never sees
			// the hole (paper §4: "BRASS will recover the dropped
			// message so the device does not have to").
			in.catchUp(st, state)
		}
	}
}

func (in *messengerInstance) OnAck(st *brass.Stream, seq uint64) {
	// Device-acknowledged delivery; state is already tracked via lastSeq.
	// Acks exist so BRASSes can implement retransmission policies; the
	// mailbox makes retransmission a catch-up query here.
}
