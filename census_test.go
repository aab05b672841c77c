package bladerunner

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/cache"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/durlog"
	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/megadevice"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/tao"
)

// TestSettingsCensus pins the settable values of the audited config
// surfaces (ROADMAP item 12). A value enters a config only when a non-test
// caller sets it to something other than what the code would pick itself,
// so adding or deleting a field means editing this list in the same change.
func TestSettingsCensus(t *testing.T) {
	census := []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(pylon.Config{}), []string{"SubCacheSize", "Clock"}},
		{reflect.TypeOf(tao.Config{}), []string{"IndexShardCapacity"}},
		{reflect.TypeOf(device.Config{}), []string{"User", "Region", "POPs", "Backoff", "BackoffSeed", "Tracer"}},
		{reflect.TypeOf(durlog.Config{}), []string{"Clock", "HotBytes", "SegmentEntries", "Segments", "Retention", "CrashHook"}},
		{reflect.TypeOf(brass.HostConfig{}), []string{"ID", "Region", "Tracer",
			"LoopQueueDepth", "StreamDeliverRate", "StreamDeliverBurst", "Durlog"}},
		{reflect.TypeOf(core.Config{}), []string{"Regions", "BRASSHostsPerRegion", "ProxiesPerRegion", "POPs",
			"KVNodesPerRegion", "Graph", "TAO", "Overload", "Trace", "Durlog", "Geo"}},
		{reflect.TypeOf(core.OverloadConfig{}), []string{"LoopQueueDepth", "StreamDeliverRate", "StreamDeliverBurst"}},
		{reflect.TypeOf(faults.BackoffPolicy{}), []string{"Base", "Max", "Multiplier", "Jitter", "NoJitter"}},
		{reflect.TypeOf(megadevice.Config{}), []string{"Devices", "Areas", "DeviceArea", "POPs", "Dialer", "Sched",
			"Backoff", "Seed", "RecordDeliveries", "HomePOP"}},
	}
	for _, c := range census {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.fields) {
			t.Errorf("%v has settings %v, the census lists %v", c.typ, got, c.fields)
		}
	}
}

// TestRetainedCensus pins what an entry of each long-lived table retains:
// the heap a row's build leaves live after two GCs, over the entries it
// holds. It is not skipped under -short; the race detector leaves these
// sizes alone.
func TestRetainedCensus(t *testing.T) {
	census := []struct {
		entry string
		bound float64 // bytes retained an entry
		per   func(t *testing.T) float64
	}{
		// Pylon's subscription metadata at mailbox_sparse's shape: 1 000
		// topics, each a one-member set on 3 replicas. A replica's set is
		// the sorted view it answers with, one 32-byte entry in its size
		// class; a Go map a set held ~390 B a key-replica.
		{"kvstore key-replica, one-member set", 150, func(t *testing.T) float64 {
			nodes := []*kvstore.Node{kvstore.NewNode("a", "r0"), kvstore.NewNode("b", "r1"), kvstore.NewNode("c", "r2")}
			return retainedPer(func() (any, int) {
				kv := kvstore.MustNewCluster(nodes, 3)
				for i := 0; i < 1000; i++ {
					if _, err := kv.SetAdd(fmt.Sprint("/MB/", i), "host-0"); err != nil {
						t.Fatal(err)
					}
				}
				return kv, 3 * 1000
			})
		}},
		// A sparse durlog topic: 1 000 mailboxes of 40 messages of 80 B,
		// 3 240 packed bytes each, in one slab grown by size class to
		// 4 096 B; doubling from the first entry reached 5 376 B (~145 B a
		// message with the topic's ring).
		{"durlog message in a sparse topic", 120, func(*testing.T) float64 {
			return retainedPer(func() (any, int) {
				l := durlog.New(durlog.Config{Clock: sim.NewManualClock(time.Unix(0, 0)), Retention: -1})
				msg := make([]byte, 80)
				for i := 0; i < 1000; i++ {
					topic := fmt.Sprint("/MB/", i)
					l.Open(topic)
					for seq := uint64(1); seq <= 40; seq++ {
						l.Append(topic, seq, msg)
					}
				}
				return l, 40 * 1000
			})
		}},
		// 100 64-entry payload caches after 25 600 distinct inserts each,
		// 2.56 M in all: the entries and an index sized once, so churn
		// retains no more than the first 64 inserts did. A Go map index
		// kept its deleted cells, ~19 KB for 64 live keys after 40 000
		// inserts (~295 B an entry).
		{"cache.LRU entry after churn", 120, func(t *testing.T) float64 {
			const caches, capacity = 100, 64
			fill := func(inserts uint64) float64 {
				return retainedPer(func() (any, int) {
					cs := make([]*cache.LRU[payloadKey, []byte], caches)
					for c := range cs {
						cs[c] = cache.NewLRU[payloadKey, []byte](capacity, time.Minute, 0.25, nil, 1)
						for i := uint64(0); i < inserts; i++ {
							cs[c].Put(payloadKey{i, 1}, nil)
						}
					}
					return cs, caches * capacity
				})
			}
			full, churned := fill(capacity), fill(25600)
			if churned > 2*full {
				t.Errorf("after 25 600 inserts a cache entry retains %.1f B, more than twice the %.1f B after %d", churned, full, capacity)
			}
			return churned
		}},
		// A 32-byte TAO association row, 20 000 over 256 video lists (78
		// rows each). A list grows by doubling, so a row retains ~64 B,
		// about twice itself; growing in smaller steps would add
		// allocations on the mailbox path, which appends a row a delivery.
		{"tao association row", 66, func(*testing.T) float64 {
			t0 := time.Unix(1700000000, 0)
			return retainedPer(func() (any, int) {
				s := tao.MustNewStore(tao.DefaultConfig(), nil)
				for i := 0; i < 20000; i++ {
					s.AssocAdd(tao.ObjID(1+i%256), "video_comment", tao.ObjID(1000+i), t0.Add(time.Duration(i)), "")
				}
				return s, 20000
			})
		}},
		// A BRASS hop less the bare end's ServerStream: its Stream, 568
		// bytes holding its BURST stream (the 576-byte class), and the
		// instance's map entry (~165 B), plus the pinned host in the header
		// the stream and the device each keep, measured once the device has
		// applied the sticky rewrite.
		{"stream at a sticky BRASS hop", 340, func(t *testing.T) float64 {
			defer awaitTeardown(t, goroutineIDs())
			const n = 2000
			opened := make(chan struct{})
			pn := edge.NewPipeNetwork()
			pn.Register("entry", func(rwc io.ReadWriteCloser) {
				burst.NewServerSession("up", rwc, burst.ServerHandlerFuncs{
					Subscribe: func(*burst.ServerStream) { opened <- struct{}{} },
				})
			})
			bare, release := heldStreams(t, pn, n, opened, nil)
			defer release()
			pn = edge.NewPipeNetwork()
			host := brass.NewHost(brass.HostConfig{ID: "hold-host"}, nil, nil, nil)
			defer host.Close()
			host.RegisterApp(holdApp{opened})
			pn.Register("entry", func(rwc io.ReadWriteCloser) { host.AcceptSession("hold", rwc) })
			deadline := time.Now().Add(10 * time.Second)
			hosted, release := heldStreams(t, pn, n, opened, func(st *burst.ClientStream) {
				for st.HeaderField(burst.HdrStickyBRASS) == "" {
					if time.Now().After(deadline) {
						t.Fatal("a stream never applied the sticky rewrite")
					}
					time.Sleep(time.Millisecond)
				}
			})
			defer release()
			return hosted - bare
		}},
	}
	for _, row := range census {
		per := row.per(t)
		t.Logf("%s: %.1f B retained, bound %.0f", row.entry, per, row.bound)
		if per > row.bound {
			t.Errorf("a %s retains %.1f B, the census bounds it at %.0f", row.entry, per, row.bound)
		}
	}
}

// payloadKey is the shape of a BRASS instance's payload-cache key.
type payloadKey struct{ id, ref uint64 }

func (k payloadKey) Hash() uint64 { return cache.Uint64Hash(k.id ^ cache.Uint64Hash(k.ref)) }

// retainedPer reports the heap build leaves live per entry: HeapAlloc after
// two GCs (the second empties sync.Pool's victim cache) before build and
// after it, while what it returns stays live. A thread the runtime starts
// meanwhile adds its ~5 KB of heap, so such a run is measured again.
func retainedPer(build func() (keep any, entries int)) float64 {
	threads := pprof.Lookup("threadcreate")
	var per float64
	for try := 0; try < 3; try++ {
		started := threads.Count()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		keep, n := build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		per = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
		if threads.Count() == started {
			break
		}
	}
	return per
}
