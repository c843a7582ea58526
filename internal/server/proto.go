// Package server is the multi-tenant file server front-end: a framed RPC
// protocol over any net.Conn, a server multiplexing many client sessions
// onto one vfs.FileSystem with per-tenant chroot-style namespaces
// (vfs.Sub), approximate quota accounting and weighted fair scheduling,
// and a client that implements vfs.FileSystem so everything written
// against the VFS interfaces — workloads, conformance suites, load
// generators — runs unchanged over a server connection.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hinfs/internal/vfs"
)

// Wire format: every message is one frame, a big-endian uint32 payload
// length followed by the payload. A request payload starts with the op
// byte followed by a u64 trace ID — a client-assigned request identifier
// propagated through the server's per-stage latency attribution and both
// sides' slow-op logs, so one slow request can be matched end to end. A
// response payload starts with the echoed u64 trace ID followed by a
// status byte (0 = OK, else an error code from the table below).
//
// Sessions are pipelined: a client may have many requests in flight on
// one connection, and responses may arrive in any order — the echoed
// trace ID is the correlator. The synchronous client path still sends
// one request at a time and asserts the echo; the Batch API exploits the
// pipeline (client.go/batch.go). The server bounds in-flight requests
// per session with a window; connections remain cheap, so large-scale
// concurrency still comes from connections.
//
// The op byte is a vfs.Op — the same code a flight record persists and
// the same name slow-op logs print — except for session attach, which is
// not a file-system operation and takes a code outside the Op range.
const opAttach vfs.Op = 0xff

// opSyncFlag, set in a request's op byte (attach excepted), is the
// client's promise that it will send nothing more on the connection until
// it has read this request's reply. The server may then execute the
// request and write its reply on the connection's reader goroutine: the
// peer is reading, so that write cannot deadlock against the peer's own
// writes. The synchronous client sets it on every call; Batch never does.
const opSyncFlag = 0x40

// MaxIO bounds the data bytes of one read or write request; larger client
// I/O is chunked. Combined with the path limits in vfs, it gives MaxFrame.
const (
	MaxIO    = 1 << 20
	maxFrame = MaxIO + 2*vfs.MaxPathLen + 64
)

// Status codes. Every vfs sentinel error crosses the wire as a code and
// is mapped back to the identical sentinel on the client, so code written
// against vfs error identities works unchanged over a connection.
const (
	stOK byte = iota
	stNotExist
	stExist
	stIsDir
	stNotDir
	stNotEmpty
	stNoSpace
	stClosed
	stReadOnly
	stWriteOnly
	stInvalid
	stNameTooLong
	stUnmounted
	stEOF // ReadAt reached end of file (data may accompany it)
	stBadHandle
	stNoTenant // op before a successful Attach
	stUnknownTenant
	stQuota // tenant over its byte quota
	stOther // unmodelled error; detail string follows
)

// Server-side sentinel errors with no vfs equivalent.
var (
	ErrBadHandle     = errors.New("server: unknown file handle")
	ErrNoTenant      = errors.New("server: session not attached to a tenant")
	ErrUnknownTenant = errors.New("server: unknown tenant")
	ErrQuota         = errors.New("server: tenant byte quota exhausted")
)

var errToCode = []struct {
	err  error
	code byte
}{
	{vfs.ErrNotExist, stNotExist},
	{vfs.ErrExist, stExist},
	{vfs.ErrIsDir, stIsDir},
	{vfs.ErrNotDir, stNotDir},
	{vfs.ErrNotEmpty, stNotEmpty},
	{vfs.ErrNoSpace, stNoSpace},
	{vfs.ErrClosed, stClosed},
	{vfs.ErrReadOnly, stReadOnly},
	{vfs.ErrWriteOnly, stWriteOnly},
	{vfs.ErrInvalid, stInvalid},
	{vfs.ErrNameTooLon, stNameTooLong},
	{vfs.ErrUnmounted, stUnmounted},
	{io.EOF, stEOF},
	{ErrBadHandle, stBadHandle},
	{ErrNoTenant, stNoTenant},
	{ErrUnknownTenant, stUnknownTenant},
	{ErrQuota, stQuota},
}

func codeFor(err error) byte {
	for _, m := range errToCode {
		if errors.Is(err, m.err) {
			return m.code
		}
	}
	return stOther
}

func errFor(code byte, detail string) error {
	for _, m := range errToCode {
		if m.code == code {
			return m.err
		}
	}
	return fmt.Errorf("server: remote error: %s", detail)
}

// --- frame I/O ---

// writeFrame emits the length prefix byte-wise so the header never
// escapes to the heap — frame encode is allocation-free (tested).
func writeFrame(w *bufio.Writer, payload []byte) error {
	n := uint32(len(payload))
	w.WriteByte(byte(n >> 24))
	w.WriteByte(byte(n >> 16))
	w.WriteByte(byte(n >> 8))
	if err := w.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf (grown as needed) and returns the
// payload: io.EOF on a clean end before the frame, io.ErrUnexpectedEOF on
// a torn one. The length prefix is read byte-wise, so like writeFrame no
// header array escapes to the heap. Oversized frames are a protocol
// violation and kill the session — the length prefix is
// attacker-controlled input.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var n uint32
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		n = n<<8 | uint32(b)
	}
	if n > maxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- payload encoding ---

// enc appends big-endian fields to a reusable buffer.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }

// str encodes a length-prefixed string (u16 length).
func (e *enc) str(s string) {
	e.b = binary.BigEndian.AppendUint16(e.b, uint16(len(s)))
	e.b = append(e.b, s...)
}

// bytes encodes a length-prefixed byte slice (u32 length).
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// grow extends the buffer by n uninitialized bytes and returns the new
// region, so payloads (read data) can be produced in place instead of
// staged through a scratch buffer and copied.
func (e *enc) grow(n int) []byte {
	l := len(e.b)
	if cap(e.b)-l < n {
		nb := make([]byte, l, l+n)
		copy(nb, e.b)
		e.b = nb
	}
	e.b = e.b[: l+n : cap(e.b)]
	return e.b[l:]
}

var errTruncated = errors.New("server: truncated message")

// dec consumes big-endian fields from a payload. The first malformed
// field poisons the decoder; check err once at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.err = errTruncated
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.err = errTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = errTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	if d.err != nil || len(d.b) < 2 {
		d.err = errTruncated
		return ""
	}
	n := int(binary.BigEndian.Uint16(d.b))
	d.b = d.b[2:]
	if len(d.b) < n {
		d.err = errTruncated
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

func (d *dec) bytes() []byte {
	if d.err != nil || len(d.b) < 4 {
		d.err = errTruncated
		return nil
	}
	n := int(binary.BigEndian.Uint32(d.b))
	d.b = d.b[4:]
	if n > MaxIO || len(d.b) < n {
		d.err = errTruncated
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}
