package ctrl

import (
	"bytes"

	"bladerunner/internal/frame"
)

// ServeNode registers the node admin handlers: ping answers with the
// node's role, so a peer can ask what it dialed (the launcher learns a
// child is ready from its READY line, not from a ping); drain triggers a
// graceful drain (the same path as SIGTERM) via the supplied callback.
func ServeNode(conn *Conn, role string, drain func()) {
	conn.handle(mPing, func(r *frame.Reader, out *bytes.Buffer) error {
		frame.PutString(out, role)
		return r.Done()
	})
	conn.handle(mDrain, func(r *frame.Reader, _ *bytes.Buffer) error {
		if err := r.Done(); err != nil {
			return err
		}
		if drain != nil {
			drain()
		}
		return nil
	})
}

// Drain asks the remote node to drain gracefully.
//
//brlint:allow(test-only-export) the launcher's rolling restart of ROADMAP item 15 is its caller
func Drain(conn *Conn) error {
	return conn.call(mDrain, nil, nil)
}
