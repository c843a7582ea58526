package server

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// Batch is the pipelined submission path: queue many data-plane ops
// (ReadAt/WriteAt/Fsync) against one Client, then Flush/Wait. Submission
// keeps up to the window in flight on the connection without waiting for
// replies; replies are matched to ops by the echoed trace ID, in
// whatever order the server completes them. One synchronous round trip
// per op becomes one wire turnaround per window.
//
// A Batch is not safe for concurrent use; it serializes against the
// Client's synchronous calls (both hold the connection mutex), so a
// Wait and a concurrent c.Stat interleave safely at the frame level.
// Results are delivered through the returned *BatchOp after Wait;
// read data lands in the caller's buffer. Reset recycles the batch —
// and invalidates its BatchOps — for the next round.
type Batch struct {
	c *Client
	// window bounds in-flight ops (DefaultBatchWindow unless SetWindow).
	window int

	ops  []*BatchOp
	sent int // ops[:sent] submitted

	pending       map[uint64]*BatchOp // in flight, by trace
	inflight      int
	inflightBytes int // expected response bytes in flight

	// depthSum/sends measure realized pipeline depth: the mean number of
	// in-flight ops observed at each submission.
	depthSum int64
	sends    int64

	lat *obs.Hist
}

// DefaultBatchWindow is the per-connection in-flight cap for batched
// submission. It stays under the server's session window so a batching
// client never stalls mid-frame against server backpressure.
const DefaultBatchWindow = 64

// batchRespWindow additionally bounds the expected bytes of in-flight
// responses, so a pipelined burst of large reads cannot overfill both
// sides' socket buffers while the client is still writing requests —
// the classic pipeline deadlock.
const batchRespWindow = 256 << 10

// BatchOp is one queued operation and, after Wait (or a Flush that
// happened to reap it), its result. Valid until the batch is Reset.
type BatchOp struct {
	op        vfs.Op
	fid       uint32
	off       int64
	buf       []byte // read destination / write source
	respBytes int    // expected response size, for the byte window
	trace     uint64
	sentAt    time.Time
	done      bool

	// N is the byte count result (read: bytes read into the buffer;
	// write: bytes accepted).
	N int
	// Err is the op's terminal status: nil, io.EOF (short read at end of
	// file, N still valid), a vfs sentinel, or a transport error.
	Err error
}

var batchOpPool = sync.Pool{New: func() any { return new(BatchOp) }}

// NewBatch returns an empty batch bound to c.
func (c *Client) NewBatch() *Batch {
	return &Batch{
		c:       c,
		window:  DefaultBatchWindow,
		pending: make(map[uint64]*BatchOp, DefaultBatchWindow),
	}
}

// SetWindow bounds in-flight ops for this batch, clamped to
// [1, DefaultBatchWindow]. Window 1 degenerates to synchronous
// submission — the baseline the batch figure compares against.
func (b *Batch) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	if n > DefaultBatchWindow {
		n = DefaultBatchWindow
	}
	b.window = n
}

// SetLatency installs a histogram receiving per-op submit-to-reply
// latency (ns). Pass nil to disable.
func (b *Batch) SetLatency(h *obs.Hist) { b.lat = h }

// Len reports how many ops are queued in the batch (submitted or not).
func (b *Batch) Len() int { return len(b.ops) }

// Ops returns the queued ops in submission order, for result inspection
// after Wait. The slice is owned by the batch and invalidated by Reset.
func (b *Batch) Ops() []*BatchOp { return b.ops }

// AchievedDepth reports the mean number of in-flight requests observed
// at each submission — the realized pipeline depth (1.0 = synchronous).
func (b *Batch) AchievedDepth() float64 {
	if b.sends == 0 {
		return 0
	}
	return float64(b.depthSum) / float64(b.sends)
}

// add queues an op against f, validating that f is a remote file of this
// batch's client. Validation errors complete the op immediately.
func (b *Batch) add(op vfs.Op, f vfs.File, buf []byte, off int64, respBytes int) *BatchOp {
	o := batchOpPool.Get().(*BatchOp)
	*o = BatchOp{op: op, off: off, buf: buf, respBytes: respBytes}
	rf, ok := f.(*remoteFile)
	switch {
	case !ok || rf.c != b.c:
		o.Err = vfs.ErrInvalid
		o.done = true
	case rf.checkOpen() != nil:
		o.Err = vfs.ErrClosed
		o.done = true
	default:
		o.fid = rf.id
	}
	b.ops = append(b.ops, o)
	return o
}

// ReadAt queues a read of len(p) bytes at off into p. Reads above MaxIO
// are rejected (the synchronous path chunks; the batch API keeps one op
// = one frame).
func (b *Batch) ReadAt(f vfs.File, p []byte, off int64) *BatchOp {
	o := b.add(vfs.OpRead, f, p, off, 13+len(p))
	if !o.done && len(p) > MaxIO {
		o.Err = vfs.ErrInvalid
		o.done = true
	}
	return o
}

// WriteAt queues a write of p at off.
func (b *Batch) WriteAt(f vfs.File, p []byte, off int64) *BatchOp {
	o := b.add(vfs.OpWrite, f, p, off, 17)
	if !o.done && len(p) > MaxIO {
		o.Err = vfs.ErrInvalid
		o.done = true
	}
	return o
}

// Fsync queues an fsync of f.
func (b *Batch) Fsync(f vfs.File) *BatchOp {
	return b.add(vfs.OpFsync, f, nil, 0, 13)
}

// Flush submits queued ops up to the window without waiting for every
// reply; ops whose replies already arrived are completed. The returned
// error is a transport/protocol failure (per-op errors live in each
// BatchOp.Err).
func (b *Batch) Flush() error {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	return b.pumpLocked(false)
}

// Wait submits everything still queued and blocks until every op has
// its reply. After Wait, every BatchOp is complete.
func (b *Batch) Wait() error {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	return b.pumpLocked(true)
}

// Reset recycles the batch and its ops for the next round. Results of
// prior BatchOps become invalid. Call only after Wait (or a transport
// failure, which completes everything).
func (b *Batch) Reset() {
	for _, o := range b.ops {
		*o = BatchOp{}
		batchOpPool.Put(o)
	}
	b.ops = b.ops[:0]
	b.sent = 0
}

// pumpLocked runs the submit/reap loop under the client mutex.
func (b *Batch) pumpLocked(drain bool) error {
	c := b.c
	if c.closed {
		b.failLocked(vfs.ErrUnmounted)
		return vfs.ErrUnmounted
	}
	for ; b.sent < len(b.ops); b.sent++ {
		o := b.ops[b.sent]
		if o.done {
			continue
		}
		for b.inflight >= b.window ||
			(b.inflight > 0 && b.inflightBytes+o.respBytes > batchRespWindow) {
			if err := b.reapOneLocked(); err != nil {
				b.failLocked(err)
				return err
			}
		}
		o.trace = c.nextTrace()
		if b.lat != nil {
			o.sentAt = time.Now()
		}
		c.out.b = c.out.b[:0]
		c.out.u8(byte(o.op))
		c.out.u64(o.trace)
		c.out.u32(o.fid)
		switch o.op {
		case vfs.OpRead:
			c.out.u64(uint64(o.off))
			c.out.u32(uint32(len(o.buf)))
		case vfs.OpWrite:
			c.out.u64(uint64(o.off))
			c.out.bytes(o.buf)
		}
		if err := writeFrame(c.bw, c.out.b); err != nil {
			b.failLocked(err)
			return err
		}
		b.pending[o.trace] = o
		b.inflight++
		b.inflightBytes += o.respBytes
		b.sends++
		b.depthSum += int64(b.inflight)
	}
	if err := c.bw.Flush(); err != nil {
		b.failLocked(err)
		return err
	}
	for drain && b.inflight > 0 {
		if err := b.reapOneLocked(); err != nil {
			b.failLocked(err)
			return err
		}
	}
	return nil
}

// reapOneLocked reads one reply frame and completes the matching op.
func (b *Batch) reapOneLocked() error {
	c := b.c
	if c.bw.Buffered() > 0 {
		// Requests may still sit in the write buffer; push them out
		// before blocking on a reply they may be needed to produce.
		if err := c.bw.Flush(); err != nil {
			return err
		}
	}
	resp, err := readFrame(c.br, c.in)
	if err != nil {
		return err
	}
	c.in = resp
	d := dec{b: resp}
	trace := d.u64()
	o := b.pending[trace]
	if d.err != nil || o == nil {
		return fmt.Errorf("server: reply for unknown trace %#x", trace)
	}
	delete(b.pending, trace)
	b.inflight--
	b.inflightBytes -= o.respBytes
	o.done = true
	if b.lat != nil {
		b.lat.ObserveSince(o.sentAt)
	}
	st := d.u8()
	switch {
	case st == stOK, st == stEOF && o.op == vfs.OpRead:
		switch o.op {
		case vfs.OpRead:
			// Copy now: the decoded slice aliases the connection's
			// reusable receive buffer.
			o.N = copy(o.buf, d.bytes())
			if st == stEOF {
				o.Err = io.EOF
			}
		case vfs.OpWrite:
			if acked := int(d.u32()); acked <= len(o.buf) {
				o.N = acked
			} else {
				o.Err = fmt.Errorf("server: write of %d bytes acknowledged as %d", len(o.buf), acked)
			}
		}
		if d.err != nil {
			o.Err = d.err
		}
	default:
		detail := ""
		if st == stOther {
			detail = d.str()
		}
		o.Err = errFor(st, detail)
	}
	return nil
}

// failLocked completes every unfinished op with err and poisons the
// connection: a transport or framing failure mid-pipeline leaves the
// stream unrecoverable.
func (b *Batch) failLocked(err error) {
	for _, o := range b.ops {
		if !o.done {
			o.done = true
			o.Err = err
		}
	}
	for trace := range b.pending {
		delete(b.pending, trace)
	}
	b.inflight = 0
	b.inflightBytes = 0
	b.sent = len(b.ops)
	if !b.c.closed {
		b.c.closed = true
		b.c.conn.Close()
	}
}
