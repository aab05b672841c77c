package burst

import (
	"strconv"

	"bladerunner/internal/durlog"
	"bladerunner/internal/overload"
)

// Action is what the holder of a request-stream does with one delta:
// Recovery.Step decides, the holder only carries the answer out.
type Action uint8

// The actions, in the order a stream usually meets them.
const (
	// Ignore: nothing to do — the stream has ended, or the delta is of no
	// known type.
	Ignore Action = iota
	// Apply: a payload for the application.
	Apply
	// Patch: a rewrite_request to merge into the stored request
	// (Subscribe.Patch).
	Patch
	// Surface: a flow_status the application hears and nothing else.
	Surface
	// Reopen: a repairable shed marker, the first of its episode. Surface
	// it, then cancel the stream and open it again from the stored request,
	// passed through Recovery.Reopen.
	Reopen
	// Coalesce: a repairable shed marker behind a reopen that has not run
	// yet, which replays everything after the frozen point already. Surface
	// it and count it; it is not a second reopen.
	Coalesce
	// End: a termination. The stream is over and is not opened again.
	End
)

// Stored reads one header key of a stream's stored (rewritten) request under
// the holder's own synchronisation. *ClientStream and *Subscribe satisfy it.
type Stored interface {
	HeaderField(key string) string
}

// Recovery is every recovery decision about one request-stream, made once for
// every model that holds one (device.Stream, megadevice's shared trunk
// streams). It keeps the resume point — the highest payload seq seen on the
// stream's current incarnation before any shed marker, the ground truth the
// stored request cannot give because the serving BRASS rewrites the resume
// tokens forward for payloads that admission shed or that died with a session
// — and whether the stream is frozen behind a gap, waiting for a reopen, or
// ended. It has no lock and no clock: the holder serializes calls, feeds it
// the deltas of the current incarnation only, and executes what it answers.
type Recovery struct {
	seq     uint64
	frozen  bool // a gap lies below whatever arrives next: the point stays put
	pending bool // a Reopen was answered and Recovery.Reopen has not run since
	ended   bool
}

// Seq returns the resume point.
func (r *Recovery) Seq() uint64 { return r.seq }

// Ended reports whether a termination has ended the stream.
func (r *Recovery) Ended() bool { return r.ended }

// Step classifies one delta of the stream's current incarnation. stored is
// the stream's stored request: a shed marker is repairable only if it carries
// a resume token for the serving BRASS to replay from — a stream without one
// has nothing to resume and the application only hears the code. The matching
// shed-recovered marker triggers nothing: it follows its FlowDegraded on a
// server stream the reopen has already replaced.
//
//brlint:hotpath per-delta on every stream of both device models, inside megadevice's fan-out critical section.
func (r *Recovery) Step(d *Delta, stored Stored) Action {
	if r.ended {
		return Ignore
	}
	switch d.Type {
	case DeltaPayload:
		// Behind a marker the point stays put: a payload that lands after a
		// gap says nothing about the gap.
		if !r.frozen && d.Seq > r.seq {
			r.seq = d.Seq
		}
		return Apply
	case DeltaRewriteRequest:
		return Patch
	case DeltaFlowStatus:
		if d.Flow != FlowDegraded || !overload.IsShedMarker(d.FlowDetail) ||
			(stored.HeaderField(HdrCursor) == "" && stored.HeaderField(HdrResumeSeq) == "") {
			return Surface
		}
		r.frozen = true
		if r.pending {
			return Coalesce
		}
		r.pending = true
		return Reopen
	case DeltaTermination:
		r.ended = true
		return End
	}
	return Ignore
}

// Reopen lowers the resume tokens of sub, the request about to open the
// stream's next incarnation, to the resume point — it never raises one, and
// sentinels and malformed values pass through — and starts that incarnation
// unfrozen with no reopen pending. Lowering is always safe (the server
// re-serves a prefix the holder dedups by seq); raising would fabricate
// progress. Every reopen goes through here, whatever caused it.
func (r *Recovery) Reopen(sub *Subscribe) {
	if c := sub.Header[HdrCursor]; c != "" {
		sub.Header[HdrCursor] = durlog.Clamp(c, r.seq)
	}
	if n, err := strconv.ParseUint(sub.Header[HdrResumeSeq], 10, 64); err == nil && n > r.seq {
		sub.Header[HdrResumeSeq] = strconv.FormatUint(r.seq, 10)
	}
	r.frozen, r.pending = false, false
}
