package apps

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/frame"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
)

// Messages sent within one instant of the WAS's clock share their TAO time:
// a stream opened without a cursor still gets them in seq order, and its
// cursor is the last of them.
func TestMessengerResumeInSeqOrderAtOneInstant(t *testing.T) {
	e := newEnv(t)
	e.was.Sched = &stepScheduler{now: time.Unix(0, 0)} // never advanced
	alice, bob := socialgraph.UserID(21), socialgraph.UserID(22)
	tid := e.createThread(t, alice, "21,22")
	for _, text := range []string{"m1", "m2", "m3"} {
		if _, err := e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: %q)`, tid, text)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.subscribe(t, e.dial(t), AppMessenger, "messenger", bob, nil)
	if got := recvMessages(t, st, 3); !slices.Equal(got, []string{"m1", "m2", "m3"}) {
		t.Errorf("catch-up = %v, want [m1 m2 m3]", got)
	}
	if got := st.Request().Header[burst.HdrCursor]; got != "0.3" {
		t.Errorf("cursor after the catch-up = %q, want 0.3", got)
	}
}

// A seq is assigned before its row is committed. mailboxSince answers up to
// the first seq without a row and nothing past it, so the BRASS never skips
// the missing message as a duplicate; once the row lands, all three are
// answered in order.
func TestMailboxAnswersUpToTheFirstUncommittedRow(t *testing.T) {
	e := newEnv(t)
	alice, bob := socialgraph.UserID(23), socialgraph.UserID(24)
	tid := e.createThread(t, alice, "23,24")
	send := func(text string) {
		t.Helper()
		if _, err := e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: %q)`, tid, text)); err != nil {
			t.Fatal(err)
		}
	}
	seqs := func(since uint64) []uint64 {
		t.Helper()
		raw, err := e.was.Query(bob, fmt.Sprintf("mailboxSince(seq: %d)", since))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := decodeMailbox(raw)
		if err != nil {
			t.Fatalf("answer %q: %v", raw, err)
		}
		var out []uint64
		for _, row := range rows {
			out = append(out, row.seq)
		}
		return out
	}
	send("one")
	m := e.suite.Messenger
	m.mu.Lock()
	m.lastSeq[bob]++ // seq 2, its row not yet added
	m.mu.Unlock()
	send("three")
	if got := seqs(0); !slices.Equal(got, []uint64{1}) {
		t.Errorf("mailboxSince(0) past the uncommitted seq 2 = %v, want [1]", got)
	}
	if got := seqs(1); got != nil {
		t.Errorf("mailboxSince(1) = %v, want nothing", got)
	}
	ref := e.tao.ObjectAdd("message", uint64(alice), tid, 0, tao.Props{{"text", "two"}})
	e.tao.AssocAdd(tao.ObjID(bob), "mailbox_msg", ref, time.Now(), "2")
	if got := seqs(0); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Errorf("mailboxSince(0) once seq 2 is committed = %v, want [1 2 3]", got)
	}
	if got := seqs(3); got != nil {
		t.Errorf("mailboxSince(3) = %v, want nothing", got)
	}
}

// A thread that names a member twice is one member: each send gives it one
// seq and one row, so its mailbox stays without holes and a stream opened
// without a cursor gets every message.
func TestMessengerThreadDropsRepeatedMembers(t *testing.T) {
	e := newEnv(t)
	alice, bob := socialgraph.UserID(25), socialgraph.UserID(26)
	tid := e.createThread(t, alice, "26, 26,25,026")
	for _, text := range []string{"m1", "m2"} {
		if _, err := e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: %q)`, tid, text)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := e.was.Query(bob, "mailboxSince(seq: 0)")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := decodeMailbox(raw)
	if err != nil {
		t.Fatalf("answer %q: %v", raw, err)
	}
	var seqs []uint64
	for _, row := range rows {
		seqs = append(seqs, row.seq)
	}
	if !slices.Equal(seqs, []uint64{1, 2}) {
		t.Errorf("mailboxSince(0) = %v, want [1 2]", seqs)
	}
	st := e.subscribe(t, e.dial(t), AppMessenger, "messenger", bob, nil)
	if got := recvMessages(t, st, 2); !slices.Equal(got, []string{"m1", "m2"}) {
		t.Errorf("catch-up = %v, want [m1 m2]", got)
	}
	if got := st.Request().Header[burst.HdrCursor]; got != "0.2" {
		t.Errorf("cursor after the catch-up = %q, want 0.2", got)
	}
}

// FuzzMailboxAnswer: a mailboxSince answer crosses ctrl from the WAS process
// into the BRASS process, so its decode takes any input: it never panics,
// builds at most a row per two input bytes, and decodes what it encodes.
func FuzzMailboxAnswer(f *testing.F) {
	var answer bytes.Buffer
	for seq, text := range []string{"hi", "", `say "<hi>"`} {
		frame.PutUvarint(&answer, uint64(seq+1)<<(7*seq))
		frame.PutBytes(&answer, MessagePayload{Seq: uint64(seq + 1), Thread: 7, Author: 9, Text: text}.AppendJSON(nil))
	}
	for _, seed := range [][]byte{answer.Bytes(), nil, {1}, {1, 0}, {1, 5, 'x'}, {0x80, 0x80, 0x80}, {2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		rows, err := decodeMailbox(in)
		if err != nil {
			return
		}
		if len(rows) > len(in)/2 {
			t.Fatalf("%d bytes decoded to %d rows", len(in), len(rows))
		}
		var b bytes.Buffer
		for _, row := range rows {
			frame.PutUvarint(&b, row.seq)
			frame.PutBytes(&b, row.msg)
		}
		again, err := decodeMailbox(b.Bytes())
		if err != nil || !slices.EqualFunc(again, rows, func(x, y mailboxRow) bool {
			return x.seq == y.seq && bytes.Equal(x.msg, y.msg)
		}) {
			t.Fatalf("rows %v re-encoded decode to %v, %v", rows, again, err)
		}
	})
}
