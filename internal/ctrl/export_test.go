package ctrl

import (
	"bytes"
	"time"

	"bladerunner/internal/frame"
	"bladerunner/internal/pylon"
)

// Ping round-trips a node.ping, returning the remote role. Nothing waits on
// it for readiness: brnode's launcher parses its children's READY lines.
func Ping(conn *Conn) (role string, err error) {
	err = conn.call(mPing, nil, func(r *frame.Reader) { role = r.Str() })
	return role, err
}

// WaitForSubscriber blocks (remotely) until topic has a subscriber or
// timeout elapses, mirroring pylon.Service.WaitForSubscriber for the
// quickstart flow.
func (c *PylonClient) WaitForSubscriber(topic pylon.Topic, timeout time.Duration) (ok bool) {
	err := c.conn.call(mWaitSubscriber, func(b *bytes.Buffer) {
		frame.PutString(b, string(topic))
		frame.PutUvarint(b, uint64(max(timeout, 0)))
	}, func(r *frame.Reader) { ok = r.Byte() != 0 })
	return ok && err == nil
}
