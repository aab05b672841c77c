package burst

import (
	"strconv"

	"bladerunner/internal/durlog"
)

// ResumePoint is where a reopened stream resumes from: the highest payload
// seq its holder saw on the stream's current incarnation before any shed
// marker. The stored request cannot say it — the serving BRASS rewrites the
// resume tokens forward for payloads that admission shed or that died with a
// session — so the holder keeps its own ground truth and lowers the tokens to
// it on every reopen. It has no lock; the holder serializes calls.
type ResumePoint struct {
	seq    uint64
	frozen bool
}

// Seq returns the point.
func (p *ResumePoint) Seq() uint64 { return p.seq }

// Payload records a payload delta of the current incarnation. After a shed
// marker the point stays put: a payload that lands behind a gap says nothing
// about the gap.
func (p *ResumePoint) Payload(seq uint64) {
	if !p.frozen && seq > p.seq {
		p.seq = seq
	}
}

// Shed records a shed marker: something below whatever arrives next is
// missing, so the point freezes until the stream is reopened.
func (p *ResumePoint) Shed() { p.frozen = true }

// Reopen lowers the resume tokens of sub, the request about to reopen the
// stream, to the point — it never raises one, and sentinels and malformed
// values pass through — and starts the next incarnation unfrozen. Lowering
// is always safe (the server re-serves a prefix the holder dedups by seq);
// raising would fabricate progress.
func (p *ResumePoint) Reopen(sub *Subscribe) {
	if c := sub.Header[HdrCursor]; c != "" {
		sub.Header[HdrCursor] = durlog.Clamp(c, p.seq)
	}
	if n, err := strconv.ParseUint(sub.Header[HdrResumeSeq], 10, 64); err == nil && n > p.seq {
		sub.Header[HdrResumeSeq] = strconv.FormatUint(p.seq, 10)
	}
	p.frozen = false
}
