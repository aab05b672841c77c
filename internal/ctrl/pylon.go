package ctrl

import (
	"bytes"
	"sync"
	"time"

	"bladerunner/internal/frame"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
)

// remoteSubscriber adapts one registered host on the serving side: Deliver
// pushes a notification down the control connection, naming the host
// because several BRASS hosts may share one node process (and thus one
// control connection). The notification's write is a buffered socket write,
// not a round trip, honoring Pylon's "Deliver must not block" contract to
// the extent a socket can (a wedged peer's TCP buffer eventually
// backpressures the writer; the keepalive on the node's BURST side and
// process supervision bound that).
type remoteSubscriber struct {
	id   string
	conn *Conn
}

func (s *remoteSubscriber) ID() string { return s.id }

func (s *remoteSubscriber) Deliver(ev pylon.Event) {
	_ = s.conn.notify(mDeliver, func(b *bytes.Buffer) {
		frame.PutString(b, s.id)
		putEvent(b, &ev)
	})
}

// ServePylon registers the pylon tier's handlers on conn, exposing svc to
// the remote peer. Each control connection re-registers its own hosts, so
// a reconnecting brass process starts from a clean slate.
func ServePylon(conn *Conn, svc *pylon.Service, sched sim.Scheduler) {
	hostCall := func(fn func(host string)) handler {
		return func(r *frame.Reader, _ *bytes.Buffer) error {
			host := r.Str()
			if err := r.Done(); err != nil {
				return err
			}
			fn(host)
			return nil
		}
	}
	conn.handle(mRegisterHost, hostCall(func(host string) {
		svc.RegisterHost(&remoteSubscriber{id: host, conn: conn})
	}))
	conn.handle(mRemoveHost, hostCall(svc.RemoveHost))
	topicHostCall := func(fn func(pylon.Topic, string) error) handler {
		return func(r *frame.Reader, _ *bytes.Buffer) error {
			topic, host := r.Str(), r.Str()
			if err := r.Done(); err != nil {
				return err
			}
			return fn(pylon.Topic(topic), host)
		}
	}
	conn.handle(mSubscribe, topicHostCall(svc.Subscribe))
	conn.handle(mUnsubscribe, topicHostCall(svc.Unsubscribe))
	conn.handle(mPublish, func(r *frame.Reader, out *bytes.Buffer) error {
		ev := readEvent(r)
		if err := r.Done(); err != nil {
			return err
		}
		n, err := svc.Publish(ev)
		frame.PutUvarint(out, uint64(n))
		return err
	})
	conn.handle(mWaitSubscriber, func(r *frame.Reader, out *bytes.Buffer) error {
		topic, timeout := r.Str(), time.Duration(r.Uvarint())
		if err := r.Done(); err != nil {
			return err
		}
		ok := svc.WaitForSubscriber(sched, pylon.Topic(topic), timeout)
		out.WriteByte(boolByte(ok))
		return nil
	})
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// PylonClient implements brass.PubSub (and was.Publisher via Publish) over
// a control connection to the pylon tier's node.
type PylonClient struct {
	conn *Conn

	mu   sync.Mutex
	subs map[string]pylon.Subscriber // deliver routing, by host id
}

// NewPylonClient wraps conn and installs the deliver dispatcher. Hosts
// registered through RegisterHost receive pushed events in arrival order.
func NewPylonClient(conn *Conn) *PylonClient {
	c := &PylonClient{conn: conn, subs: make(map[string]pylon.Subscriber)}
	conn.handle(mDeliver, func(r *frame.Reader, _ *bytes.Buffer) error {
		host, ev := r.Bytes(), readEvent(r)
		if err := r.Done(); err != nil {
			return err
		}
		c.mu.Lock()
		sub := c.subs[string(host)]
		c.mu.Unlock()
		if sub != nil {
			sub.Deliver(ev)
		}
		return nil
	})
	return c
}

// RegisterHost implements brass.PubSub: announce the host remotely and
// route its deliveries.
func (c *PylonClient) RegisterHost(sub pylon.Subscriber) {
	c.mu.Lock()
	c.subs[sub.ID()] = sub
	c.mu.Unlock()
	c.hostCall(mRegisterHost, sub.ID())
}

// RemoveHost implements brass.PubSub: stop routing to the host (a delivery
// already on the wire is dropped, as it would be in process) and tell the
// remote Pylon.
func (c *PylonClient) RemoveHost(hostID string) {
	c.mu.Lock()
	delete(c.subs, hostID)
	c.mu.Unlock()
	c.hostCall(mRemoveHost, hostID)
}

func (c *PylonClient) hostCall(m method, hostID string) {
	_ = c.conn.call(m, func(b *bytes.Buffer) { frame.PutString(b, hostID) }, nil)
}

// Subscribe implements brass.PubSub.
func (c *PylonClient) Subscribe(topic pylon.Topic, hostID string) error {
	return c.topicHostCall(mSubscribe, topic, hostID)
}

// Unsubscribe implements brass.PubSub.
func (c *PylonClient) Unsubscribe(topic pylon.Topic, hostID string) error {
	return c.topicHostCall(mUnsubscribe, topic, hostID)
}

func (c *PylonClient) topicHostCall(m method, topic pylon.Topic, hostID string) error {
	return c.conn.call(m, func(b *bytes.Buffer) {
		frame.PutString(b, string(topic))
		frame.PutString(b, hostID)
	}, nil)
}

// Publish implements was.Publisher: publish into the remote Pylon.
func (c *PylonClient) Publish(ev pylon.Event) (n int, err error) {
	err = c.conn.call(mPublish,
		func(b *bytes.Buffer) { putEvent(b, &ev) },
		func(r *frame.Reader) { n = int(r.Uvarint()) })
	return n, err
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
