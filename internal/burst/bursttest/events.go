// Package bursttest holds helpers for tests that consume BURST client
// streams and device streams.
package bursttest

import (
	"sync"
	"testing"
)

// pumps maps each stream with a running pump to the channel it feeds.
var pumps sync.Map

// Events returns a channel fed, in order, with what st's Next hands out, for
// a test that waits on a stream in a select with a deadline. The first call
// for st starts the pump and later calls return the same channel, so a test
// may call Events wherever it receives. The channel closes once Next reports
// that the stream has ended; the pump also stops when the test that started
// it ends. It takes any stream with a Next of that shape — a
// burst.ClientStream's batches or a device.Stream's deltas.
func Events[R any](t testing.TB, st interface{ Next() (R, bool) }) <-chan R {
	ch := make(chan R)
	if running, ok := pumps.LoadOrStore(st, ch); ok {
		return running.(chan R)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		defer close(ch)
		defer pumps.Delete(st)
		for {
			rc, ok := st.Next()
			if !ok {
				return
			}
			select {
			case ch <- rc:
			case <-stop:
				return
			}
		}
	}()
	return ch
}
