package apps

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/durlog"
	"bladerunner/internal/frame"
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
// Resumption state (the cursor: the last sequence number pushed under the
// host log's epoch, 0 without a log) is persisted in the stream header via
// rewrites: after a failure or a shed marker the resubscribe arrives
// carrying it, lowered by the device to what it actually has, and the
// (possibly different) serving BRASS replays what is missing — from its log
// if the cursor proves continuity, else from the mailbox — before resuming
// live delivery (resume).
type Messenger struct {
	mu      sync.Mutex
	threads map[uint64][]socialgraph.UserID // thread → members
	lastSeq map[socialgraph.UserID]uint64   // owner → the mailbox's last seq assigned
	nextTID uint64
	topics  *topicTable[socialgraph.UserID] // owner → MailboxTopic
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
		lastSeq: make(map[socialgraph.UserID]uint64),
		topics:  newTopicTable(MailboxTopic),
	}

	// createThread(members: "1,2,3") → thread id; a member named twice is one.
	w.RegisterMutation("createThread", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
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
			if !slices.Contains(members, socialgraph.UserID(uid)) {
				members = append(members, socialgraph.UserID(uid))
			}
		}
		a.mu.Lock()
		a.nextTID++
		tid := a.nextTID
		a.threads[tid] = members
		a.mu.Unlock()
		return strconv.AppendUint(nil, tid, 10), nil
	})

	// sendMessage(threadID: T, text: "..."): append to every member's
	// mailbox with that mailbox's next sequence number, then publish one
	// event per member mailbox.
	w.RegisterMutation("sendMessage", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
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
		ref := ctx.Srv.TAO.ObjectAdd("message", uint64(ctx.Viewer), tid, 0, tao.Props{{"text", text}})
		for _, member := range members {
			seq := a.appendToMailbox(ctx, member, ref)
			ctx.Publish(pylon.Event{Topic: a.topics.topic(member), Ref: uint64(ref), Seq: seq, Author: uint64(ctx.Viewer)}, false)
		}
		return strconv.AppendUint(nil, uint64(ref), 10), nil
	})

	// mailboxSince(seq: S) → the viewer's mailbox rows with sequence > S,
	// in seq order. The BRASS uses this for gap repair and resume catch-up.
	w.RegisterQuery("mailboxSince", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		since, err := call.Uint64Arg("seq")
		if err != nil {
			return nil, err
		}
		return a.mailboxSince(ctx, ctx.Viewer, since), nil
	})

	w.RegisterSubscription("messenger", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		return a.topics.list(ctx.Viewer), nil
	})

	w.RegisterPayload(AppMessenger, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		obj, err := ctx.Reader().ObjectGet(ref)
		if err != nil {
			return nil, err
		}
		return a.payloadFromObj(obj, ev.Seq).AppendJSON(nil), nil
	})
	return a
}

func (a *Messenger) payloadFromObj(obj tao.Object, seq uint64) MessagePayload {
	return MessagePayload{Seq: seq, Thread: obj.Parent, Author: obj.Author, Text: obj.Data.Get("text")}
}

// appendToMailbox assigns the next sequence number and stores the mailbox
// association, keyed by its owner, in TAO (assoc data = seq). It returns the seq.
func (a *Messenger) appendToMailbox(ctx was.Ctx, member socialgraph.UserID, ref tao.ObjID) uint64 {
	a.mu.Lock()
	a.lastSeq[member]++
	seq := a.lastSeq[member]
	a.mu.Unlock()
	ctx.Srv.TAO.AssocAdd(tao.ObjID(member), "mailbox_msg", ref, ctx.Now, strconv.FormatUint(seq, 10))
	return seq
}

// mailboxSince encodes owner's rows after since in seq order (decodeMailbox),
// up to the first seq whose row is not yet committed: past it, the BRASS would
// drop that row's event as a duplicate.
//
// This read deliberately stays on the TAO LEADER, not the region-local
// follower (ctx.Reader()): it is the reliable catch-up path that closes
// delivery gaps after failover, and a follower stale by one replication
// lag could silently drop the most recent messages — turning the gap-free
// resume guarantee into a best-effort one. Payload resolution of
// individual (immutable, created-once) message objects is safe on
// followers; the authoritative mailbox index is not. Catch-up is a delivery
// like any other: a message whose author the owner may not see is skipped.
func (a *Messenger) mailboxSince(ctx was.Ctx, owner socialgraph.UserID, since uint64) []byte {
	a.mu.Lock()
	last := a.lastSeq[owner]
	a.mu.Unlock()
	if since >= last {
		return nil
	}
	slots := make([]tao.ObjID, last-since) // seq since+1+i at i; 0: no row yet
	for _, as := range ctx.Srv.TAO.AssocRange(tao.ObjID(owner), "mailbox_msg", 0, 0) {
		if seq, _ := strconv.ParseUint(as.Data, 10, 64); seq > since && seq <= last {
			slots[seq-since-1] = as.ID2
		}
	}
	out, msg := new(bytes.Buffer), []byte(nil)
	for i := 0; i < len(slots) && slots[i] != 0; i++ {
		obj, err := ctx.Srv.TAO.ObjectGet(slots[i])
		if seq := since + 1 + uint64(i); err == nil && ctx.Srv.PrivacyCheck(owner, socialgraph.UserID(obj.Author)) {
			msg = a.payloadFromObj(obj, seq).AppendJSON(msg[:0])
			frame.PutUvarint(out, seq)
			frame.PutBytes(out, msg)
		}
	}
	return out.Bytes()
}

// mailboxRow is one row of a mailboxSince answer: the seq's varint, then the
// message's JSON behind its length.
type mailboxRow struct {
	seq uint64
	msg []byte
}

// decodeMailbox reads an answer's rows to its end, each msg aliasing b.
func decodeMailbox(b []byte) ([]mailboxRow, error) {
	r := frame.Reader{B: b}
	var rows []mailboxRow
	for len(r.B) > 0 {
		rows = append(rows, mailboxRow{seq: r.Uvarint(), msg: r.Bytes()})
	}
	return rows, r.Done()
}

// Name implements brass.Application.
func (a *Messenger) Name() string { return AppMessenger }

type messengerStream struct {
	lastSeq uint64
	// topic is the stream's resolved mailbox topic — the key it logs
	// deliveries and serves cursor catch-ups under when the host's
	// durable log is enabled for Messenger.
	topic pylon.Topic
	// patch is the stream's one resume patch, refilled per delivery, and tokens
	// the bytes its cursor is lent from, room for any epoch and seq:
	// SendBatch merges a patch by copy and encodes it before Push returns.
	patch  burst.Header
	tokens [41]byte
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
	state := &messengerStream{patch: make(burst.Header, 1)}
	st.State = state
	if len(topics) > 0 {
		state.topic = topics[0]
		in.rt.LogOpen(state.topic)
	}
	in.resume(st, state)
	return nil
}

// resume serves a stream open: it replays everything after the request's
// cursor and persists the new one, the one place that chooses between the
// two sources. The cursor's seq is the floor: the device lowers it to what it
// actually has before it resubscribes. The source is the host's durable log
// when the cursor proves continuity — gap-free, no backend read — and
// otherwise (no log, epoch 0, no cursor, a malformed one, or
// durlog.ErrCursorExpired: a cursor is NEVER repaired into a fabricated one)
// the mailbox. Either way the suffix goes out with its cursor as ONE batch
// that bypasses per-stream admission (see Stream.PushCatchUp). The input-only
// sentinels keep their meaning: "live" skips the backlog, "earliest" replays
// the whole retained window.
func (in *messengerInstance) resume(st *brass.Stream, state *messengerStream) {
	// The Log* accessors answer "no" for a host or topic without a log, so
	// every log branch below falls through to the mailbox by itself.
	raw := st.Header(burst.HdrCursor)
	c, ok := durlog.Parse(raw)
	switch raw {
	case durlog.SentinelLive:
		if tail, live := in.rt.LogTail(state.topic); live {
			state.lastSeq = tail.Seq
			_ = st.Rewrite(in.resumePatch(state, state.lastSeq), nil)
			return
		}
	case durlog.SentinelEarliest:
		c, ok = in.rt.LogEarliest(state.topic)
	}
	state.lastSeq = c.Seq

	var ps []brass.Payload
	last := c.Seq
	fromLog := false
	if ok {
		entries, _, err := in.rt.LogRead(state.topic, c)
		fromLog = err == nil
		for _, e := range entries {
			ps, last = append(ps, st.Own(e.Seq, e.Payload)), e.Seq
		}
	}
	if !fromLog {
		ps, last, _ = in.mailboxAfter(st, state, c.Seq) // a failed read replays nothing; see below
	}
	// If nothing could be read or sent lastSeq stays at the floor, and the
	// next live event finds the gap and repairs it through catchUp.
	if st.PushCatchUp(in.resumePatch(state, last), ps...) == nil {
		state.lastSeq = last
	}
}

// resumePatch is the header patch that persists seq as the stream's cursor:
// seq under the host log's current epoch for the topic, or epoch 0 on a host
// without one, which no log serves. The value is lent from the stream's
// tokens buffer, formatted over again each time: the patch allocates nothing,
// and is valid until the next one (DESIGN.md §7e rule 1a).
func (in *messengerInstance) resumePatch(state *messengerStream, seq uint64) burst.Header {
	tail, _ := in.rt.LogTail(state.topic)
	b := durlog.Cursor{Epoch: tail.Epoch, Seq: seq}.AppendTo(state.tokens[:0])
	state.patch[burst.HdrCursor] = unsafe.String(unsafe.SliceData(b), len(b))
	return state.patch
}

// mailboxAfter reads the viewer's mailbox after seq, in seq order, and makes
// each row's JSON, as the WAS wrote it, a Payload with Own: the WAS ran the
// read as the viewer. Each row is logged too, because the log records every
// delivery decision, including the ones from a WAS read: the next resume on
// this topic replays them from the edge instead. last is the highest seq read.
func (in *messengerInstance) mailboxAfter(st *brass.Stream, state *messengerStream, seq uint64) (ps []brass.Payload, last uint64, err error) {
	raw, err := in.rt.Query(st.Viewer, fmt.Sprintf("mailboxSince(seq: %d)", seq))
	if err != nil {
		return nil, seq, err
	}
	rows, err := decodeMailbox(raw)
	if err != nil {
		return nil, seq, err
	}
	last = seq
	for _, row := range rows {
		in.rt.LogAppend(state.topic, row.seq, row.msg)
		ps, last = append(ps, st.Own(row.seq, row.msg)), row.seq
	}
	return ps, last, nil
}

// catchUp repairs a gap the BRASS itself detected on the live path: it reads
// the mailbox after state.lastSeq and pushes the rows with their resume
// patch as one batch, through admission like any live delivery.
func (in *messengerInstance) catchUp(st *brass.Stream, state *messengerStream) {
	ps, last, err := in.mailboxAfter(st, state, state.lastSeq)
	if err == nil && st.Push(in.resumePatch(state, last), ps...) == nil {
		state.lastSeq = last
	}
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
			p, ok := st.Fetch(ev, ev.Seq)
			if !ok {
				continue
			}
			in.rt.LogAppend(ev.Topic, ev.Seq, p.Bytes())
			if st.Push(in.resumePatch(state, ev.Seq), p) == nil {
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
