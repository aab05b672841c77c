package ctrl

import (
	"bytes"

	"bladerunner/internal/frame"
)

// ServeNode registers the node admin handlers: ping answers with the
// node's role (the launcher's readiness probe), drain triggers a graceful
// drain (the same path as SIGTERM) via the supplied callback.
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

// Ping round-trips a node.ping, returning the remote role.
func Ping(conn *Conn) (role string, err error) {
	err = conn.call(mPing, nil, func(r *frame.Reader) { role = r.Str() })
	return role, err
}

// Drain asks the remote node to drain gracefully.
func Drain(conn *Conn) error {
	return conn.call(mDrain, nil, nil)
}
