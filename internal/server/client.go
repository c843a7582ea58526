package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// Client is a connection to a Server, attached to one tenant. It
// implements vfs.FileSystem, so workloads, conformance suites and tools
// written against the VFS interfaces run unchanged over the wire; the
// error identities (vfs.ErrNotExist, io.EOF, ...) survive the round trip.
//
// A Client is safe for concurrent use; synchronous calls serialize on
// the connection. For single-connection parallelism, use NewBatch — the
// pipelined submission path (batch.go); for multi-connection
// parallelism, open more clients — connections are the unit of
// concurrency, which is how the load generator simulates users.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	in     []byte
	out    enc
	d      dec // call's reply decoder, reused so parse callbacks allocate nothing
	closed bool
	// trace is the request-ID generator: seeded per client from the wall
	// clock (scrambled so concurrent clients do not collide), incremented
	// per request. The current value is sent in every request frame and is
	// what joins a client-side slow-op record to the server-side one.
	trace atomic.Uint64
	// slow, when set, receives client-observed slow-op records — the
	// round-trip latency as the application saw it, wire time included.
	slow atomic.Pointer[obs.SlowLog]
}

// SetSlowOpLog installs a client-side slow-op log: any request whose
// full round trip reaches the log's threshold is recorded with side
// "client" and the same trace ID the server saw. Pass nil to disable.
func (c *Client) SetSlowOpLog(l *obs.SlowLog) { c.slow.Store(l) }

// nextTrace returns a fresh trace ID for one request.
func (c *Client) nextTrace() uint64 { return c.trace.Add(1) }

// SetTraceBase reseeds the request-ID generator so the next request is
// stamped base+1, the one after base+2, and so on. Harnesses use it to
// make every wire trace predictable, so an externally kept op schedule
// joins server-side records (flight ring, slow-op logs) by trace alone.
func (c *Client) SetTraceBase(base uint64) { c.trace.Store(base) }

// Dial connects to addr and attaches to tenant.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, tenant)
}

// NewClient attaches to tenant over an existing connection (net.Pipe in
// tests). It takes ownership of conn.
func NewClient(conn net.Conn, tenant string) (*Client, error) {
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	c.trace.Store(uint64(time.Now().UnixNano()) * 0x9e3779b97f4a7c15)
	c.mu.Lock()
	c.out.b = c.out.b[:0]
	c.out.u8(byte(opAttach))
	trace := c.nextTrace()
	c.out.u64(trace)
	c.out.str(tenant)
	resp, err := c.roundTripLocked()
	if err == nil {
		var d dec
		d.b = resp
		if rt := d.u64(); d.err != nil || rt != trace {
			err = fmt.Errorf("server: attach response trace mismatch")
		} else if st := d.u8(); st != stOK {
			err = errFor(st, d.str())
		}
	}
	c.mu.Unlock()
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// roundTripLocked sends c.out as one frame and reads the response frame.
// The caller holds c.mu and has filled c.out.
func (c *Client) roundTripLocked() ([]byte, error) {
	if c.closed {
		return nil, vfs.ErrUnmounted
	}
	if err := writeFrame(c.bw, c.out.b); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := readFrame(c.br, c.in)
	if err != nil {
		return nil, err
	}
	c.in = resp
	return resp, nil
}

// call performs one request for op: the op byte (flagged synchronous —
// call reads the reply before anything else is sent) and a fresh trace ID
// are written first, then build encodes the request body into c.out;
// parse (optional) decodes a successful response body.
func (c *Client) call(op vfs.Op, build func(*enc), parse func(*dec) error) error {
	slow := c.slow.Load()
	var start time.Time
	if slow != nil {
		start = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out.b = c.out.b[:0]
	c.out.u8(byte(op) | opSyncFlag)
	trace := c.nextTrace()
	c.out.u64(trace)
	if build != nil {
		build(&c.out)
	}
	resp, err := c.roundTripLocked()
	if slow != nil {
		if lat := time.Since(start).Nanoseconds(); slow.Exceeds(lat) {
			rec := obs.SlowOp{
				Side:    "client",
				Trace:   obs.TraceString(trace),
				Op:      op.String(),
				TotalNS: lat,
			}
			if err != nil {
				rec.Err = err.Error()
			}
			slow.Record(rec)
		}
	}
	if err != nil {
		return err
	}
	d := &c.d
	*d = dec{b: resp}
	if rt := d.u64(); d.err != nil || rt != trace {
		// The reply stream is desynchronized (a reply for a request this
		// call never made); there is no way to resynchronize a framed
		// pipeline, so poison the connection.
		c.closed = true
		c.conn.Close()
		return fmt.Errorf("server: response trace mismatch (got %#x, want %#x)", rt, trace)
	}
	st := d.u8()
	if st != stOK && st != stEOF {
		detail := ""
		if st == stOther {
			detail = d.str()
		}
		return errFor(st, detail)
	}
	if parse != nil {
		if perr := parse(d); perr != nil {
			return perr
		}
		if d.err != nil {
			return d.err
		}
	}
	if st == stEOF {
		return io.EOF
	}
	return nil
}

// Create implements vfs.FileSystem.
func (c *Client) Create(path string) (vfs.File, error) {
	var id uint32
	err := c.call(vfs.OpCreate, func(e *enc) {
		e.str(path)
	}, func(d *dec) error {
		id = d.u32()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &remoteFile{c: c, id: id}, nil
}

// Open implements vfs.FileSystem.
func (c *Client) Open(path string, flags int) (vfs.File, error) {
	var id uint32
	err := c.call(vfs.OpOpen, func(e *enc) {
		e.u32(uint32(flags))
		e.str(path)
	}, func(d *dec) error {
		id = d.u32()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &remoteFile{c: c, id: id}, nil
}

// Mkdir implements vfs.FileSystem.
func (c *Client) Mkdir(path string) error {
	return c.call(vfs.OpMkdir, func(e *enc) { e.str(path) }, nil)
}

// Rmdir implements vfs.FileSystem.
func (c *Client) Rmdir(path string) error {
	return c.call(vfs.OpRmdir, func(e *enc) { e.str(path) }, nil)
}

// Unlink implements vfs.FileSystem.
func (c *Client) Unlink(path string) error {
	return c.call(vfs.OpUnlink, func(e *enc) { e.str(path) }, nil)
}

// Rename implements vfs.FileSystem.
func (c *Client) Rename(oldpath, newpath string) error {
	return c.call(vfs.OpRename, func(e *enc) { e.str(oldpath); e.str(newpath) }, nil)
}

// Stat implements vfs.FileSystem.
func (c *Client) Stat(path string) (vfs.FileInfo, error) {
	var fi vfs.FileInfo
	err := c.call(vfs.OpStat, func(e *enc) {
		e.str(path)
	}, func(d *dec) error {
		fi.Name = d.str()
		fi.Size = int64(d.u64())
		fi.IsDir = d.u8() == 1
		fi.Blocks = int64(d.u64())
		return nil
	})
	return fi, err
}

// ReadDir implements vfs.FileSystem.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	var ents []vfs.DirEntry
	err := c.call(vfs.OpReadDir, func(e *enc) {
		e.str(path)
	}, func(d *dec) error {
		// Every entry takes at least 3 bytes (name length, flag), so the
		// frame bounds the count before it sizes an allocation.
		n := int(d.u32())
		if n > len(d.b)/3 {
			return fmt.Errorf("server: implausible directory size %d", n)
		}
		ents = make([]vfs.DirEntry, 0, n)
		for i := 0; i < n; i++ {
			name := d.str()
			isDir := d.u8() == 1
			if d.err != nil {
				return d.err
			}
			ents = append(ents, vfs.DirEntry{Name: name, IsDir: isDir})
		}
		return nil
	})
	return ents, err
}

// Sync implements vfs.FileSystem.
func (c *Client) Sync() error {
	return c.call(vfs.OpSync, nil, nil)
}

// Unmount implements vfs.FileSystem: it ends the session and closes the
// connection. The server-side file system stays mounted — a tenant does
// not own the mount.
func (c *Client) Unmount() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return vfs.ErrUnmounted
	}
	c.closed = true
	return c.conn.Close()
}

// --- remote file handle ---

// remoteFile is a client-side vfs.File backed by a server handle. It
// deliberately exposes no optional capabilities (no BlockMmapper): device
// memory cannot be aliased across a wire, and the capability probes
// (vfs.FileAs) correctly report that.
type remoteFile struct {
	c  *Client
	id uint32
	mu sync.Mutex
	// closed guards double-close client-side so the handle ID — which the
	// server may eventually reuse for another session — is never sent
	// after Close.
	closed bool
}

func (f *remoteFile) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return vfs.ErrClosed
	}
	return nil
}

// ReadAt implements vfs.File, chunking at MaxIO.
func (f *remoteFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > MaxIO {
			chunk = MaxIO
		}
		var n int
		err := f.c.call(vfs.OpRead, func(e *enc) {
			e.u32(f.id)
			e.u64(uint64(off + int64(total)))
			e.u32(uint32(chunk))
		}, func(d *dec) error {
			// Copy inside the parse callback: it runs under the client
			// mutex, and the decoded slice aliases the connection's reusable
			// receive buffer.
			n = copy(p[total:], d.bytes())
			return nil
		})
		total += n
		if err != nil {
			return total, err
		}
		if n < chunk {
			// Short read without EOF status should not happen; treat it as
			// EOF rather than spinning.
			return total, io.EOF
		}
	}
	return total, nil
}

// WriteAt implements vfs.File, chunking at MaxIO.
func (f *remoteFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	total := 0
	for {
		chunk := len(p) - total
		if chunk > MaxIO {
			chunk = MaxIO
		}
		var n int
		err := f.c.call(vfs.OpWrite, func(e *enc) {
			e.u32(f.id)
			e.u64(uint64(off + int64(total)))
			e.bytes(p[total : total+chunk])
		}, func(d *dec) error {
			acked := int(d.u32())
			if acked > chunk {
				return fmt.Errorf("server: write of %d bytes acknowledged as %d", chunk, acked)
			}
			n = acked
			return nil
		})
		total += n
		if err != nil {
			return total, err
		}
		if total >= len(p) {
			return total, nil
		}
		if n < chunk {
			return total, vfs.ErrNoSpace
		}
	}
}

// Fsync implements vfs.File.
func (f *remoteFile) Fsync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	return f.c.call(vfs.OpFsync, func(e *enc) { e.u32(f.id) }, nil)
}

// Truncate implements vfs.File.
func (f *remoteFile) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	return f.c.call(vfs.OpTruncate, func(e *enc) {
		e.u32(f.id)
		e.u64(uint64(size))
	}, nil)
}

// Size implements vfs.File.
func (f *remoteFile) Size() int64 {
	if err := f.checkOpen(); err != nil {
		return 0
	}
	var size int64
	err := f.c.call(vfs.OpSize, func(e *enc) { e.u32(f.id) }, func(d *dec) error {
		size = int64(d.u64())
		return nil
	})
	if err != nil {
		return 0
	}
	return size
}

// Close implements vfs.File. A second Close returns ErrClosed locally
// without another round trip.
func (f *remoteFile) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return vfs.ErrClosed
	}
	f.closed = true
	f.mu.Unlock()
	return f.c.call(vfs.OpClose, func(e *enc) { e.u32(f.id) }, nil)
}
