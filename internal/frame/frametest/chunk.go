// Package frametest holds transport doubles for testing code that reads
// frames: what real TCP segmentation does to a byte stream, on demand.
package frametest

import "io"

// ChunkReader delivers at most 1–7 bytes per Read, cycling the chunk size,
// so frame headers and payloads arrive torn across many reads — the shape
// real TCP segmentation produces under small socket buffers.
type ChunkReader struct {
	R io.Reader
	n int
}

func (c *ChunkReader) Read(p []byte) (int, error) {
	c.n++
	max := c.n%7 + 1
	if len(p) > max {
		p = p[:max]
	}
	return c.R.Read(p)
}

// ChunkConn chunks the read side of an io.ReadWriteCloser.
type ChunkConn struct {
	io.ReadWriteCloser
	cr ChunkReader
}

// NewChunkConn wraps rwc so that its reads arrive torn.
func NewChunkConn(rwc io.ReadWriteCloser) *ChunkConn {
	c := &ChunkConn{ReadWriteCloser: rwc}
	c.cr.R = rwc
	return c
}

func (c *ChunkConn) Read(p []byte) (int, error) { return c.cr.Read(p) }
