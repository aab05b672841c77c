package megadevice

import "sync/atomic"

// LastSeq returns the highest payload seq applied to stream sid.
func (f *Fleet) LastSeq(sid uint32) uint64 {
	return atomic.LoadUint64(&f.tab.streamSeq[sid])
}

// DeliveredSeqs returns a copy of sid's full delivery trace. The appends
// run under the owning topicSub's mutex; taking that same mutex here
// orders the read after every delivery so far.
func (f *Fleet) DeliveredSeqs(sid uint32) []uint64 {
	if f.rec == nil {
		return nil
	}
	f.mu.Lock()
	t := f.trunkOfStreamLocked(sid)
	f.mu.Unlock()
	if t != nil {
		if ts := t.lookupSub(f.areaOf[f.tab.streamTopic[sid]]); ts != nil {
			ts.mu.Lock()
			defer ts.mu.Unlock()
			return append([]uint64(nil), f.rec[sid]...)
		}
	}
	return append([]uint64(nil), f.rec[sid]...)
}

// trunkOfStreamLocked returns the trunk sid's owner is attached through,
// or nil. Callers hold f.mu.
func (f *Fleet) trunkOfStreamLocked(sid uint32) *trunk {
	tid := f.tab.trunk[f.tab.streamOwner[sid]]
	if tid == noTrunk {
		return nil
	}
	return f.trunkIDs[tid]
}

// Pending returns the number of queued transitions.
func (f *Fleet) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.heap)
}
