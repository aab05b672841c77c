package edge

import (
	"bytes"
	"net"
	"testing"

	"bladerunner/internal/burst"
)

// burst's poison hook (burst/session.go) overwrites a frame payload once its
// handler returns and a lease once it is released. Package burst's own tests
// always run with it; this package's — the relay is the consumer that
// releases — run with it when the test binary is linked with
//
//	-ldflags '-X bladerunner/internal/burst.poison=on'
//
// as CI's wire-smoke job does. This test passes only then, so a run that
// meant to have the hook on can check that it did.
func TestPoisonHookIsOn(t *testing.T) {
	a, b := net.Pipe()
	var kept []byte
	done := make(chan struct{})
	rx := burst.NewSession("rx", b, burst.HandlerFuncs{
		OnFrame: func(f burst.Frame) { kept = f.Payload },
		OnClose: func(error) { close(done) },
	})
	tx := burst.NewSession("tx", a, burst.HandlerFuncs{})
	if err := tx.Send(burst.Frame{Type: burst.FrameBatch, SID: 1, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	tx.Close()
	<-done
	rx.Close()
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, 7)) {
		t.Skip("burst's poison hook is off in this test binary")
	}
}
