package bladerunner

import (
	"flag"
	"io"
	"sync"
	"testing"

	"bladerunner/internal/bench"
	"bladerunner/internal/burst"
)

// TestAllocContracts holds the hot paths to the allocation counts they
// were built to: each body is the benchmark of the same name, run for a
// fixed 2000 iterations so one-time warm-up (pool fills, map growth, a
// GC's pool refills) amortizes below one per op and nothing larger can
// hide. The publish bodies run with the overload plane admitting and the
// region plane routing, and with tracing off. The durlog append and
// megadevice apply rows live beside their benchmarks
// (internal/durlog.TestAppendDoesNotAllocate,
// internal/megadevice.TestApplyPayloadDoesNotAllocate).
func TestAllocContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc contracts: 2000 measured iterations per path, and the race detector allocates")
	}
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	if err := benchtime.Set("2000x"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		body  func(*testing.B)
		limit int64
		why   string
	}{
		{"PylonPublish", bench.PylonPublish, 0, "cached fan-out, token-bucket refill and per-link enqueue all run in place"},
		{"HotTopicFanout", bench.HotTopicFanout, 0, "1000 subscribers are served from the subscriber cache"},
		{"BURSTFrameEncode", bench.BURSTFrameEncode, 0, "header and payload go into one pooled buffer"},
		{"BURSTFrameDecode", bench.BURSTFrameDecode, 2, "the frame buffer and the []Delta that aliases it"},
		{"PylonPublishWire", bench.PylonPublishWire, 4, "the topic string and the one-byte result, plus pool refills after a GC"},
		{"CtrlCheckVisibility", bench.CtrlCheckVisibilityWire, 2, "params in a pooled buffer, event shared through the memo; room for pool refills only"},
		{"BURSTResumeBatchDecode", resumeBatchDecode, 5, "the []Delta, the patch map's two, two values; resume-seq and cursor decode to the package constants"},
		{"BURSTResumeBatchApply", resumeBatchApply, 6, "the frame buffer plus the decode: merging a patch into a header that has both keys allocates nothing"},
	} {
		res := testing.Benchmark(c.body)
		if res.N != 2000 {
			t.Errorf("%s: ran %d iterations, want 2000 (a failed body reports 0)", c.name, res.N)
			continue
		}
		if got := res.AllocsPerOp(); got > c.limit {
			t.Errorf("%s: %d allocs/op, contract is <= %d (%s)", c.name, got, c.limit, c.why)
		}
	}
}

// resumeBatchWire is Messenger's per-delivery batch — the payload and the
// rewrite patching both resume tokens — as the frame client stream 1 reads.
func resumeBatchWire(b *testing.B) []byte {
	tap := &wireTap{closed: make(chan struct{})}
	enc := burst.NewSession("enc", tap, burst.HandlerFuncs{})
	defer enc.Close()
	if err := enc.SendMsg(burst.FrameBatch, 1, burst.Batch{Deltas: []burst.Delta{
		burst.PayloadDelta(41, []byte(`{"seq":41,"thread":1,"author":7,"text":"hi"}`)),
		burst.RewriteDelta(burst.Header{burst.HdrResumeSeq: "41", burst.HdrCursor: "1.41"}, nil),
	}}); err != nil {
		b.Fatal(err)
	}
	return tap.written
}

func resumeBatchDecode(b *testing.B) {
	payload := resumeBatchWire(b)[13:] // behind the frame header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := burst.DecodeBatch(payload)
		if err != nil || len(batch.Deltas) != 2 || len(batch.Deltas[1].Header) != 2 {
			b.Fatalf("decoded %+v, %v", batch, err)
		}
	}
}

func resumeBatchApply(b *testing.B) {
	tap := &wireTap{wire: resumeBatchWire(b), next: make(chan struct{}), closed: make(chan struct{})}
	cli := burst.NewClient("device", tap, nil)
	defer cli.Close()
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "messenger", burst.HdrUser: "7", burst.HdrResumeSeq: "40", burst.HdrCursor: "1.40"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.next <- struct{}{}
		if batch := <-st.Events; len(batch) != 1 || batch[0].Seq != 41 {
			b.Fatalf("device saw %+v, want the payload alone", batch)
		}
	}
	if st.HeaderField(burst.HdrCursor) != "1.41" || st.HeaderField(burst.HdrApp) != "messenger" {
		b.Fatalf("patch not merged: %+v", st.Request().Header)
	}
}

// wireTap is a transport end that records what is written to it and hands
// its reader one copy of wire per token on next (never, with a nil next).
type wireTap struct {
	written, wire []byte
	next, closed  chan struct{}
	once          sync.Once
}

func (w *wireTap) Write(p []byte) (int, error) {
	w.written = append(w.written, p...)
	return len(p), nil
}

func (w *wireTap) Read(p []byte) (int, error) {
	select {
	case <-w.next:
		return copy(p, w.wire), nil // a session reads into 32 KiB: the frame fits
	case <-w.closed:
		return 0, io.EOF
	}
}

func (w *wireTap) Close() error {
	w.once.Do(func() { close(w.closed) })
	return nil
}
