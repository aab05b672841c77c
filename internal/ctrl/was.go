package ctrl

import (
	"bytes"

	"bladerunner/internal/frame"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/was"
)

// ServeWAS registers the WAS tier's handlers on conn, exposing srv to the
// remote peer.
func ServeWAS(conn *Conn, srv *was.Server) {
	exprCall := func(fn func(region string, viewer socialgraph.UserID, expr string) ([]byte, error)) handler {
		return func(r *frame.Reader, out *bytes.Buffer) error {
			region, viewer, expr := r.Str(), r.Uvarint(), r.Str()
			if err := r.Done(); err != nil {
				return err
			}
			data, err := fn(region, socialgraph.UserID(viewer), expr)
			frame.PutBytes(out, data)
			return err
		}
	}
	conn.handle(mQuery, exprCall(srv.QueryIn))
	conn.handle(mMutate, exprCall(srv.MutateIn))
	conn.handle(mResolveSubscription, func(r *frame.Reader, out *bytes.Buffer) error {
		viewer, expr := r.Uvarint(), r.Str()
		if err := r.Done(); err != nil {
			return err
		}
		topics, err := srv.ResolveSubscription(socialgraph.UserID(viewer), expr)
		frame.PutUvarint(out, uint64(len(topics)))
		for _, t := range topics {
			frame.PutString(out, string(t))
		}
		return err
	})
	conn.handle(mCheckVisibility, func(r *frame.Reader, _ *bytes.Buffer) error {
		viewer, ev := r.Uvarint(), conn.readEvent(r)
		if err := r.Done(); err != nil {
			return err
		}
		return srv.CheckEventVisibility(socialgraph.UserID(viewer), ev)
	})
	// resolve-payload and fetch-payload share one layout; resolve has no
	// viewer (the resolver runs in the system context) and sends 0.
	payloadCall := func(fn func(region, app string, viewer socialgraph.UserID, ev pylon.Event) ([]byte, error)) handler {
		return func(r *frame.Reader, out *bytes.Buffer) error {
			region, app, viewer, ev := r.Str(), r.Str(), r.Uvarint(), conn.readEvent(r)
			if err := r.Done(); err != nil {
				return err
			}
			data, err := fn(region, app, socialgraph.UserID(viewer), ev)
			frame.PutBytes(out, data)
			return err
		}
	}
	conn.handle(mResolvePayload, payloadCall(func(region, app string, _ socialgraph.UserID, ev pylon.Event) ([]byte, error) {
		return srv.ResolvePayloadIn(region, app, ev)
	}))
	conn.handle(mFetchPayload, payloadCall(srv.FetchPayloadIn))
}

// WASClient implements brass.Backend and device.Backend over a control
// connection to the WAS tier's node.
type WASClient struct {
	conn *Conn
}

// NewWASClient wraps conn.
func NewWASClient(conn *Conn) *WASClient { return &WASClient{conn: conn} }

func (c *WASClient) exprCall(m method, region string, viewer socialgraph.UserID, expr string) (data []byte, err error) {
	err = c.conn.call(m, func(b *bytes.Buffer) {
		frame.PutString(b, region)
		frame.PutUvarint(b, uint64(viewer))
		frame.PutString(b, expr)
	}, func(r *frame.Reader) { data = r.Bytes() })
	return data, err
}

// QueryIn implements brass.Backend and device.Backend.
func (c *WASClient) QueryIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	return c.exprCall(mQuery, region, viewer, expr)
}

// MutateIn implements device.Backend.
func (c *WASClient) MutateIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	return c.exprCall(mMutate, region, viewer, expr)
}

// ResolveSubscription implements brass.Backend.
func (c *WASClient) ResolveSubscription(viewer socialgraph.UserID, expr string) (topics []pylon.Topic, err error) {
	err = c.conn.call(mResolveSubscription, func(b *bytes.Buffer) {
		frame.PutUvarint(b, uint64(viewer))
		frame.PutString(b, expr)
	}, func(r *frame.Reader) {
		topics = make([]pylon.Topic, r.Count(1))
		for i := range topics {
			topics[i] = pylon.Topic(r.Str())
		}
	})
	return topics, err
}

// CheckEventVisibility implements brass.Backend.
func (c *WASClient) CheckEventVisibility(viewer socialgraph.UserID, ev pylon.Event) error {
	return c.conn.call(mCheckVisibility, func(b *bytes.Buffer) {
		frame.PutUvarint(b, uint64(viewer))
		putEvent(b, &ev)
	}, nil)
}

func (c *WASClient) payloadCall(m method, region, app string, viewer socialgraph.UserID, ev *pylon.Event) (data []byte, err error) {
	err = c.conn.call(m, func(b *bytes.Buffer) {
		frame.PutString(b, region)
		frame.PutString(b, app)
		frame.PutUvarint(b, uint64(viewer))
		putEvent(b, ev)
	}, func(r *frame.Reader) { data = r.Bytes() })
	return data, err
}

// ResolvePayloadIn implements brass.Backend.
func (c *WASClient) ResolvePayloadIn(region, app string, ev pylon.Event) ([]byte, error) {
	return c.payloadCall(mResolvePayload, region, app, 0, &ev)
}

// FetchPayloadIn implements brass.Backend.
func (c *WASClient) FetchPayloadIn(region, app string, viewer socialgraph.UserID, ev pylon.Event) ([]byte, error) {
	return c.payloadCall(mFetchPayload, region, app, viewer, &ev)
}
