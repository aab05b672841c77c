package ctrl

import (
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/edge"
)

// A ctrl link is built the same way on both ends, over whatever network
// carries it: wrap the transport in a Conn, let setup register the handlers
// this end serves, then Start. Registering before Start is the one rule —
// a fast peer's first message must not find its handler missing — and
// Server and Dial are where it is kept.

// Server serves ctrl on every transport handed to Accept, which fits
// edge.PipeNetwork.Register, faults.FaultNetwork.Register and
// edge.TCPNetwork.Listen. It holds the live conns only: a conn is
// forgotten once it closes, from either side.
type Server struct {
	name  string
	setup func(*Conn)

	mu     sync.Mutex
	conns  map[*Conn]bool
	closed bool
}

// NewServer returns a server whose conns are labelled name and served by
// setup (nil serves nothing).
func NewServer(name string, setup func(*Conn)) *Server {
	return &Server{name: name, setup: setup, conns: make(map[*Conn]bool)}
}

// Accept wraps rwc in a Conn, runs setup on it and starts it. After Close
// it closes rwc instead.
func (s *Server) Accept(rwc io.ReadWriteCloser) {
	var conn *Conn
	conn = NewConn(s.name, rwc, func(error) {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	})
	if s.setup != nil {
		s.setup(conn)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[conn] = true
	s.mu.Unlock()
	conn.Start()
}

// Close closes every live conn; a transport accepted later is closed on
// arrival. The listener that feeds Accept is its owner's to close.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Dial opens a ctrl link to target through d, labelled name: setup (nil
// for none) registers this end's handlers — NewPylonClient's deliver
// dispatcher, say — before the conn starts.
func Dial(d edge.Dialer, target, name string, setup func(*Conn)) (*Conn, error) {
	rwc, err := d.Dial(target)
	if err != nil {
		return nil, fmt.Errorf("ctrl %s: %w", name, err)
	}
	conn := NewConn(name, rwc, nil)
	if setup != nil {
		setup(conn)
	}
	return conn.Start(), nil
}
