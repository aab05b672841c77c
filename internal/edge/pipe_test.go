package edge

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// result is what one Read or Write returned.
type result struct {
	n   int
	err error
}

// blocked reports whether ch stays empty for a moment: the call feeding it
// is parked.
func blocked(ch <-chan result) bool {
	select {
	case <-ch:
		return false
	case <-time.After(20 * time.Millisecond):
		return true
	}
}

func returned(t *testing.T, ch <-chan result) result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked call never returned")
		return result{}
	}
}

// Close follows net.Pipe, whichever end closes: the closed end fails at once,
// even with bytes buffered for it; the peer drains what was buffered for it,
// then reads EOF, and its writes fail.
func TestPipeCloseSemantics(t *testing.T) {
	for _, closer := range []int{0, 1} {
		ends := [2]net.Conn{}
		ends[0], ends[1] = Pipe()
		local, peer := ends[closer], ends[1-closer]
		if _, err := local.Write([]byte("to peer")); err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Write([]byte("to local")); err != nil {
			t.Fatal(err)
		}
		if err := local.Close(); err != nil {
			t.Fatal(err)
		}
		if err := local.Close(); err != nil {
			t.Errorf("end %d: a second Close = %v", closer, err)
		}
		buf := make([]byte, 64)
		if n, err := local.Read(buf); n != 0 || err != io.ErrClosedPipe {
			t.Errorf("end %d: the closed end's Read = %d, %v; want io.ErrClosedPipe with bytes buffered", closer, n, err)
		}
		if n, err := local.Write([]byte("x")); n != 0 || err != io.ErrClosedPipe {
			t.Errorf("end %d: the closed end's Write = %d, %v", closer, n, err)
		}
		if n, err := peer.Read(buf); err != nil || string(buf[:n]) != "to peer" {
			t.Errorf("end %d: the peer read %q, %v; want what was buffered", closer, buf[:n], err)
		}
		for i := 0; i < 2; i++ {
			if n, err := peer.Read(buf); n != 0 || err != io.EOF {
				t.Errorf("end %d: the peer's Read after draining = %d, %v; want io.EOF", closer, n, err)
			}
		}
		if n, err := peer.Write([]byte("x")); n != 0 || err != io.ErrClosedPipe {
			t.Errorf("end %d: the peer's Write = %d, %v", closer, n, err)
		}
	}
}

// A writer blocks only while the buffer is full. It wakes when the peer
// reads, and when either end closes.
func TestPipeBlockedWriterWakes(t *testing.T) {
	for _, tc := range []struct {
		name string
		act  func(w, r net.Conn)
		want result
	}{
		{"peer reads", func(_, r net.Conn) { _, _ = r.Read(make([]byte, 1)) }, result{1, nil}},
		{"writer closes", func(w, _ net.Conn) { w.Close() }, result{0, io.ErrClosedPipe}},
		{"peer closes", func(_, r net.Conn) { r.Close() }, result{0, io.ErrClosedPipe}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, r := Pipe()
			defer w.Close()
			defer r.Close()
			if n, err := w.Write(make([]byte, PipeBuffer)); n != PipeBuffer || err != nil {
				t.Fatalf("filling the buffer: %d, %v", n, err)
			}
			done := make(chan result, 1)
			go func() {
				n, err := w.Write([]byte{1})
				done <- result{n, err}
			}()
			if !blocked(done) {
				t.Fatal("a Write into a full buffer returned")
			}
			tc.act(w, r)
			if got := returned(t, done); got != tc.want {
				t.Errorf("the blocked Write returned %d, %v; want %d, %v", got.n, got.err, tc.want.n, tc.want.err)
			}
		})
	}
}

// A blocked reader wakes on the peer's write, and on either end's close.
func TestPipeBlockedReaderWakes(t *testing.T) {
	for _, tc := range []struct {
		name string
		act  func(w, r net.Conn)
		want result
	}{
		{"peer writes", func(w, _ net.Conn) { _, _ = w.Write([]byte{1}) }, result{1, nil}},
		{"reader closes", func(_, r net.Conn) { r.Close() }, result{0, io.ErrClosedPipe}},
		{"peer closes", func(w, _ net.Conn) { w.Close() }, result{0, io.EOF}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, r := Pipe()
			defer w.Close()
			defer r.Close()
			done := make(chan result, 1)
			go func() {
				n, err := r.Read(make([]byte, 8))
				done <- result{n, err}
			}()
			if !blocked(done) {
				t.Fatal("a Read of an empty buffer returned")
			}
			tc.act(w, r)
			if got := returned(t, done); got != tc.want {
				t.Errorf("the blocked Read returned %d, %v; want %d, %v", got.n, got.err, tc.want.n, tc.want.err)
			}
		})
	}
}

// A Write larger than the buffer completes as the reader drains it.
func TestPipeLargeWriteCompletesAsReaderDrains(t *testing.T) {
	w, r := Pipe()
	defer w.Close()
	defer r.Close()
	want := make([]byte, 4*PipeBuffer+123)
	for i := range want {
		want[i] = byte(i * 7)
	}
	done := make(chan result, 1)
	go func() {
		n, err := w.Write(want)
		done <- result{n, err}
	}()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	if res := returned(t, done); res.n != len(want) || res.err != nil {
		t.Errorf("Write = %d, %v; want %d, nil", res.n, res.err, len(want))
	}
	if !bytes.Equal(got, want) {
		t.Error("the reader got other bytes than were written")
	}
}

// Concurrent Writes, each larger than the buffer, reach the reader whole:
// none is interleaved with another, and each writer's arrive in its order.
func TestPipeConcurrentWritesNeverInterleave(t *testing.T) {
	const writers, frames = 8, 4
	size := PipeBuffer*3/2 + 1
	w, r := Pipe()
	defer r.Close()
	var wg sync.WaitGroup
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if _, err := w.Write(bytes.Repeat([]byte{byte(id*frames + f)}, size)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); w.Close() }()
	all, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != writers*frames*size {
		t.Fatalf("read %d bytes, want %d", len(all), writers*frames*size)
	}
	next := make([]int, writers)
	for off := 0; off < len(all); off += size {
		frame := all[off : off+size]
		if bytes.Count(frame, frame[:1]) != size {
			t.Fatalf("the frame at %d mixes two writes", off)
		}
		id, f := int(frame[0])/frames, int(frame[0])%frames
		if f != next[id] {
			t.Fatalf("writer %d's frame %d arrived when %d was due", id, f, next[id])
		}
		next[id]++
	}
}

func TestPipeHasNoDeadlines(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	for _, set := range []func(time.Time) error{a.SetDeadline, a.SetReadDeadline, a.SetWriteDeadline} {
		if err := set(time.Time{}); !errors.Is(err, errNoDeadline) {
			t.Errorf("a deadline setter returned %v", err)
		}
	}
}

// pipeScript is a multi-writer run over one link, decoded from fuzz input:
// the first byte picks the writers and which end closes, and each further
// pair a chunk (its writer, its length). Every chunk is one Write, prefixed
// with its writer and length so the reader can split what arrives.
type pipeScript struct {
	writers     int
	chunks      [][2]int // writer, length
	readerClose bool     // the reader closes after readLimit bytes; else the writer end closes after the last chunk
	readLimit   int
}

// pipeScriptBytes caps a script's payload, so one run stays quick.
const pipeScriptBytes = 4 * PipeBuffer

func parsePipeScript(in []byte) pipeScript {
	s := pipeScript{writers: 1}
	if len(in) == 0 {
		return s
	}
	s.writers = 1 + int(in[0]&3)
	s.readerClose = in[0]&4 != 0
	total := 0
	for in = in[1:]; len(in) >= 2 && total < pipeScriptBytes; in = in[2:] {
		n := 1 + 2*int(in[1])*int(in[1]) // mostly small, up to about twice the buffer
		s.chunks = append(s.chunks, [2]int{int(in[0]) % s.writers, n})
		total += chunkHeader + n
	}
	if s.readerClose && len(in) > 0 {
		s.readLimit = total * int(in[0]) / 256
	}
	return s
}

const chunkHeader = 5 // writer byte, uint32 length

// pipeRun is what one script produced, from the reader's side.
type pipeRun struct {
	streams  [][]byte // each writer's bytes, in the order read
	read     int
	readErr  error // the Read that ended the run
	writeErr error // a Write by the reader's end once the run ended
	late     error // a Write by the writers' end once the run ended
}

func runPipeScript(t *testing.T, pipe func() (net.Conn, net.Conn), s pipeScript) pipeRun {
	w, r := pipe()
	defer w.Close()
	defer r.Close()
	var wg sync.WaitGroup
	for id := 0; id < s.writers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range s.chunks {
				if c[0] != id {
					continue
				}
				chunk := binary.BigEndian.AppendUint32([]byte{byte(id)}, uint32(c[1]))
				if _, err := w.Write(append(chunk, chunkBody(id, c[1])...)); err != nil {
					return // only once the reader has closed
				}
			}
		}()
	}
	if !s.readerClose {
		go func() { wg.Wait(); w.Close() }()
	}
	var got []byte
	run := pipeRun{streams: make([][]byte, s.writers)}
	buf := make([]byte, 1000)
	for {
		want := len(buf)
		if s.readerClose {
			if len(got) == s.readLimit {
				r.Close()
			}
			want = min(want, max(s.readLimit-len(got), 1))
		}
		n, err := r.Read(buf[:want])
		got = append(got, buf[:n]...)
		if err != nil {
			run.readErr = err
			break
		}
	}
	wg.Wait()
	run.read = len(got)
	run.writeErr = func() error { _, err := r.Write([]byte{0}); return err }()
	run.late = func() error { _, err := w.Write([]byte{0}); return err }()
	for len(got) >= chunkHeader {
		id, n := int(got[0]), int(binary.BigEndian.Uint32(got[1:]))
		if id >= s.writers || n > len(got)-chunkHeader && !s.readerClose {
			t.Fatalf("a chunk header names writer %d and %d bytes: writes interleaved", id, n)
		}
		body := got[chunkHeader:min(len(got), chunkHeader+n)]
		run.streams[id] = append(run.streams[id], body...)
		got = got[chunkHeader+len(body):]
	}
	if len(got) > 0 && !s.readerClose { // else the limit may cut a header
		t.Fatalf("%d bytes left over: not a chunk header", len(got))
	}
	return run
}

// FuzzPipe runs one multi-writer script through net.Pipe and through Pipe.
// When the writers' end closes, both must deliver every writer's bytes whole
// and in order, then io.EOF; when the reader closes, both must stop it with
// io.ErrClosedPipe after the same byte count, and fail later writes either
// way. Pipe may differ only in what a writer's Write returned: a buffered
// write completes before it is read.
func FuzzPipe(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		s := parsePipeScript(in)
		want := runPipeScript(t, net.Pipe, s)
		got := runPipeScript(t, Pipe, s)
		if got.read != want.read || got.readErr != want.readErr || got.writeErr != want.writeErr || got.late != want.late {
			t.Fatalf("Pipe read %d bytes and ended %v, %v, %v; net.Pipe read %d and ended %v, %v, %v",
				got.read, got.readErr, got.writeErr, got.late, want.read, want.readErr, want.writeErr, want.late)
		}
		// Each writer's bytes arrive whole and in order. Which writers' bytes
		// the reader took before it closed is a race on either link.
		for id := range got.streams {
			all := expected(s, id)
			for _, run := range []struct {
				name   string
				stream []byte
			}{{"net.Pipe", want.streams[id]}, {"Pipe", got.streams[id]}} {
				if !bytes.HasPrefix(all, run.stream) || !s.readerClose && len(run.stream) != len(all) {
					t.Fatalf("writer %d: %s delivered %d of its %d bytes, or other bytes", id, run.name, len(run.stream), len(all))
				}
			}
		}
	})
}

// chunkBody is the n bytes of one of writer id's chunks.
func chunkBody(id, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(id + 3*i)
	}
	return b
}

// expected is the byte stream writer id's chunks carry.
func expected(s pipeScript, id int) []byte {
	var out []byte
	for _, c := range s.chunks {
		if c[0] == id {
			out = append(out, chunkBody(id, c[1])...)
		}
	}
	return out
}
