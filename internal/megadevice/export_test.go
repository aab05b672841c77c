package megadevice

import "sync/atomic"

// LastSeq returns the highest payload seq applied to dev's stream.
func (f *Fleet) LastSeq(dev uint32) uint64 {
	return atomic.LoadUint64(&f.tab.seq[dev])
}

// DeliveredSeqs returns a copy of dev's full delivery trace. The appends
// run under the owning topicSub's mutex; taking that same mutex here
// orders the read after every delivery so far.
func (f *Fleet) DeliveredSeqs(dev uint32) []uint64 {
	if f.rec == nil {
		return nil
	}
	f.mu.Lock()
	var t *trunk
	if tid := f.tab.trunk[dev]; tid != noTrunk {
		t = f.trunkIDs[tid]
	}
	f.mu.Unlock()
	if t != nil {
		if ts := t.lookupSub(f.tab.area[dev]); ts != nil {
			ts.mu.Lock()
			defer ts.mu.Unlock()
			return append([]uint64(nil), f.rec[dev]...)
		}
	}
	return append([]uint64(nil), f.rec[dev]...)
}

// Pending returns the number of queued transitions.
func (f *Fleet) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.heap)
}
