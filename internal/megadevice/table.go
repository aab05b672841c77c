// Package megadevice is the million-device scale harness: an event-driven
// virtual-device plane whose per-device cost is a few dozen BYTES instead
// of the goroutines-and-channels cost of device.Device (~several KB per
// stream). It exists so the repo can drive a live core.Cluster with 10^6+
// edge devices on one machine and measure what the paper measures at fleet
// scale — delivery latency CDFs, reconnect storms, celebrity fanout —
// without the client model itself becoming the bottleneck.
//
// The design trades per-device fidelity for density, explicitly:
//
//   - Struct-of-arrays tables. A virtual device is a row across a handful
//     of parallel fixed-width arrays (state, attempt, popIdx, trunk,
//     firstStream), a stream is a row across five more. No per-device
//     heap objects, no pointers, no goroutines, no channels. Strings
//     (topics, POP names) appear once, interned to dense uint32 handles
//     (internal/intern); rows carry only handles.
//
//   - State machines on the event kernel. Dial, backoff, reconnect-with-
//     POP-rotation, drop and go-offline are transitions in a packed
//     16-byte min-heap serviced by ONE sim.Scheduler timer, instead of
//     per-device timers and pump goroutines. A simulated day of diurnal
//     churn is a few tens of millions of heap operations. What a stream's
//     deltas mean (shed marker, rewrite, termination, what a reopen carries)
//     and how long a retry waits are decided for this model and
//     device.Device alike by burst.Recovery and faults.BackoffPolicy.Delay.
//
//   - Batched edge attach. One real BURST session per POP (a "trunk")
//     carries every virtual device attached through that POP, and devices
//     subscribed to the same topic SHARE one real request-stream per
//     trunk (refcounted). The cluster therefore sees #POPs sessions and
//     #POPs x #topics streams, while the model fans each delivered delta
//     out to every attached virtual device on a zero-allocation apply
//     path. This is the deliberate model difference versus device.Device
//     (which owns a private stream per subscription); DESIGN.md section 10
//     spells out what it preserves and what it drops.
package megadevice

// Device states. A device is Idle (offline, nothing pending), Backoff
// (offline with exactly one pending dial transition), or Connected
// (attached to a trunk). The invariant "Backoff implies one queued kDial"
// is what lets the fleet run without per-device timers.
const (
	StateIdle uint8 = iota
	StateBackoff
	StateConnected
)

// Sentinels for "no trunk" / "no stream" / "not attached" / "ended by a
// termination: never attached again".
const (
	noTrunk    = ^uint16(0)
	noStream   = ^uint32(0)
	noIndex    = ^uint32(0)
	endedIndex = noIndex - 1
)

// tables is the struct-of-arrays core: parallel fixed-width columns
// indexed by dense device and stream ids. Per-device cost:
//
//	state+attempt+popIdx      3 B
//	trunk                     2 B
//	firstStream               4 B   -> 9 B per device
//
//	streamTopic (intern handle) 4 B
//	streamNext  (chain)         4 B
//	streamOwner (device id)     4 B
//	streamSubIdx (pos in sub)   4 B
//	streamSeq   (last applied)  8 B  -> 24 B per stream
//
// With one stream per device that is 33 B before the transition heap
// (16 B/entry, peak-bounded) and per-topic membership slices (4 B per
// attached stream) — comfortably inside the 64 B/device budget the CI
// gate enforces via Footprint.
type tables struct {
	// Device columns (len = device count).
	state       []uint8
	attempt     []uint8
	popIdx      []uint8
	trunk       []uint16
	firstStream []uint32

	// Stream columns (len = stream count).
	streamTopic  []uint32 // interned topic handle
	streamNext   []uint32 // next stream of the same device, noStream ends
	streamOwner  []uint32 // owning device id
	streamSubIdx []uint32 // index in the topicSub membership; noIndex if detached, endedIndex if terminated
	streamSeq    []uint64 // highest applied payload seq (atomic access)
}

func newTables(devices int) *tables {
	t := &tables{
		state:       make([]uint8, devices),
		attempt:     make([]uint8, devices),
		popIdx:      make([]uint8, devices),
		trunk:       make([]uint16, devices),
		firstStream: make([]uint32, devices),
	}
	for i := range t.trunk {
		t.trunk[i] = noTrunk
		t.firstStream[i] = noStream
	}
	return t
}

// addStream appends a stream row owned by dev, linking it into the
// device's chain, and returns its id.
func (t *tables) addStream(dev uint32, topicHandle uint32) uint32 {
	sid := uint32(len(t.streamTopic))
	t.streamTopic = append(t.streamTopic, topicHandle)
	t.streamNext = append(t.streamNext, t.firstStream[dev])
	t.streamOwner = append(t.streamOwner, dev)
	t.streamSubIdx = append(t.streamSubIdx, noIndex)
	t.streamSeq = append(t.streamSeq, 0)
	t.firstStream[dev] = sid
	return sid
}

// bytes returns the exact size of the table columns' backing arrays.
func (t *tables) bytes() int64 {
	b := int64(cap(t.state)) + int64(cap(t.attempt)) + int64(cap(t.popIdx))
	b += 2 * int64(cap(t.trunk))
	b += 4 * int64(cap(t.firstStream))
	b += 4 * int64(cap(t.streamTopic))
	b += 4 * int64(cap(t.streamNext))
	b += 4 * int64(cap(t.streamOwner))
	b += 4 * int64(cap(t.streamSubIdx))
	b += 8 * int64(cap(t.streamSeq))
	return b
}

// transition is one packed pending state-machine step: at absolute
// scheduler nanos `due`, apply `kind` to device `dev`. 16 bytes.
type transition struct {
	due  int64
	dev  uint32
	kind uint32
}

// Transition kinds.
const (
	kDial uint32 = iota + 1 // Backoff -> dial the current POP
	kDrop                   // Connected -> involuntary network drop
	kOff                    // any -> Idle (user went offline)
)

// tranHeap is a hand-rolled min-heap of transitions ordered by due time.
// container/heap would box every entry into an interface; at millions of
// pushes per simulated day the flat slice version is both faster and what
// keeps the 16 B/entry accounting honest.
type tranHeap []transition

func (h tranHeap) less(i, j int) bool { return h[i].due < h[j].due }

func (h *tranHeap) push(tr transition) {
	*h = append(*h, tr)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *tranHeap) pop() transition {
	old := *h
	n := len(old)
	top := old[0]
	old[0] = old[n-1]
	old = old[:n-1]
	// Shrink the backing array once it is mostly slack, exactly like
	// sim.Engine's queue: the initial connect burst pushes one entry per
	// device and must not pin 16 B/device for the rest of the run.
	if c := cap(old); c > 1024 && (n-1)*4 < c {
		shrunk := make(tranHeap, n-1, c/2)
		copy(shrunk, old)
		old = shrunk
	}
	*h = old
	if len(old) > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(old) && old.less(l, small) {
				small = l
			}
			if r < len(old) && old.less(r, small) {
				small = r
			}
			if small == i {
				break
			}
			old[i], old[small] = old[small], old[i]
			i = small
		}
	}
	return top
}

// splitmix64 is the per-(device,attempt) jitter hash: stateless, so the
// fleet pays zero bytes of per-device RNG state yet every device's retry
// schedule diverges deterministically (same role as faults.Backoff's
// seeded jitter in device.Device).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFrac maps a hash to [0,1): the u of faults.BackoffPolicy.Delay.
func unitFrac(h uint64) float64 { return float64(h>>11) / (1 << 53) }
