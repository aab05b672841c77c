package burst

import (
	"bytes"
	"sync"
)

// Frame encoding on the send path is the per-delta hot loop of the whole
// stack: every payload push encodes a Batch. A frame — header and payload —
// is built in one pooled buffer and written to the wire before the buffer
// is released, so the send path allocates nothing per frame. Only the ENCODE
// side pools: a received frame's buffer is aliased by the decoded deltas
// and belongs to whoever holds them.

// maxPooledBuf caps the size of buffers returned to the pool; encoding a
// rare jumbo batch must not pin megabytes in the pool forever.
const maxPooledBuf = 1 << 20

var encBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

//brlint:hotpath pooled buffer checkout on the per-frame encode path.
func getEncBuf() *bytes.Buffer {
	return encBufPool.Get().(*bytes.Buffer)
}

//brlint:hotpath pooled buffer return on the per-frame encode path.
func putEncBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	encBufPool.Put(b)
}
