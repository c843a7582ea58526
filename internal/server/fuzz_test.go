package server

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"hinfs/internal/vfs"
)

// frame returns the wire bytes of one request: length prefix, op byte,
// trace, then whatever body encodes.
func frame(op byte, body func(*enc)) []byte {
	var e enc
	e.u8(op)
	e.u64(0x1122334455667788)
	if body != nil {
		body(&e)
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeFrame(w, e.b)
	w.Flush()
	return buf.Bytes()
}

// parseWire runs the server's decode path over raw connection bytes the
// way serveConn and admit do: one frame, the request header, then the
// per-op arguments. ok=false is a rejected request.
func parseWire(wire []byte) (req *request, ok bool) {
	payload, err := readFrame(bufio.NewReader(bytes.NewReader(wire)), nil)
	if err != nil {
		return nil, false
	}
	req = &request{}
	d := dec{b: payload}
	req.header(&d)
	if d.err != nil {
		return nil, false
	}
	return req, req.parse(&d)
}

// FuzzRequestParse feeds arbitrary bytes to the request decoder — the
// first code in the server to touch bytes a client wrote. It must reject
// malformed input by returning, never by panicking, and whatever it
// accepts must be within the bounds exec relies on.
func FuzzRequestParse(f *testing.F) {
	path := func(e *enc) { e.str("/dir/file") }
	handle := func(e *enc) { e.u32(7) }
	valid := map[vfs.Op][]byte{
		vfs.OpOpen:     frame(byte(vfs.OpOpen), func(e *enc) { e.u32(vfs.ORdwr); e.str("/f") }),
		vfs.OpCreate:   frame(byte(vfs.OpCreate), path),
		vfs.OpClose:    frame(byte(vfs.OpClose), handle),
		vfs.OpRead:     frame(byte(vfs.OpRead), func(e *enc) { e.u32(7); e.u64(4096); e.u32(512) }),
		vfs.OpWrite:    frame(byte(vfs.OpWrite), func(e *enc) { e.u32(7); e.u64(4096); e.bytes(make([]byte, 512)) }),
		vfs.OpFsync:    frame(byte(vfs.OpFsync), handle),
		vfs.OpTruncate: frame(byte(vfs.OpTruncate), func(e *enc) { e.u32(7); e.u64(100) }),
		vfs.OpMkdir:    frame(byte(vfs.OpMkdir), path),
		vfs.OpRmdir:    frame(byte(vfs.OpRmdir), path),
		vfs.OpUnlink:   frame(byte(vfs.OpUnlink), path),
		vfs.OpRename:   frame(byte(vfs.OpRename), func(e *enc) { e.str("/a"); e.str("/b") }),
		vfs.OpStat:     frame(byte(vfs.OpStat), path),
		vfs.OpReadDir:  frame(byte(vfs.OpReadDir), path),
		vfs.OpSync:     frame(byte(vfs.OpSync), nil),
		vfs.OpSize:     frame(byte(vfs.OpSize), handle),
	}
	for op, wire := range valid {
		if req, ok := parseWire(wire); !ok || req.op != op {
			f.Fatalf("valid %s frame rejected", op)
		}
		f.Add(wire)
	}
	// The same frames flagged synchronous, as the blocking client sends
	// them: the flag is stripped before the op is decoded.
	for op, wire := range valid {
		flagged := bytes.Clone(wire)
		flagged[4] |= opSyncFlag
		if req, ok := parseWire(flagged); !ok || req.op != op {
			f.Fatalf("flagged %s frame rejected", op)
		}
		f.Add(flagged)
	}
	write := valid[vfs.OpWrite]
	for name, wire := range map[string][]byte{
		"truncated frame":        write[:len(write)-100],
		"truncated arguments":    frame(byte(vfs.OpRead), handle),
		"opcode past the range":  frame(byte(vfs.OpSize)+1, handle),
		"opcode zero":            frame(0, nil),
		"flagged past the range": frame((byte(vfs.OpSize)+1)|opSyncFlag, handle),
		"oversized read length":  frame(byte(vfs.OpRead), func(e *enc) { e.u32(7); e.u64(0); e.u32(MaxIO + 1) }),
		"oversized frame":        {0xff, 0xff, 0xff, 0xff, byte(vfs.OpSync)},
	} {
		if _, ok := parseWire(wire); ok {
			f.Fatalf("%s accepted", name)
		}
		f.Add(wire)
	}

	f.Fuzz(func(t *testing.T, wire []byte) {
		req, ok := parseWire(wire)
		if !ok {
			return
		}
		if req.op < vfs.OpOpen || req.op > vfs.OpSize {
			t.Fatalf("accepted opcode %d", req.op)
		}
		if req.n < 0 || req.n > MaxIO || len(req.data) > MaxIO {
			t.Fatalf("%s accepted with n=%d, %d data bytes (MaxIO %d)", req.op, req.n, len(req.data), MaxIO)
		}
	})
}

// fakeServer answers a Client's attach, then answers its next request
// with reply: the request's trace followed by reply as one frame, or, when
// raw is set, reply as bare wire bytes. Then it hangs up, so a client
// waiting for more can only see the end of the stream. stop closes the
// client side and waits for the server goroutine.
func fakeServer(t testing.TB, raw bool, reply []byte) (c *Client, stop func()) {
	t.Helper()
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		br, bw := bufio.NewReader(sc), bufio.NewWriter(sc)
		answer := func(body []byte) bool {
			req, err := readFrame(br, nil)
			if err != nil || len(req) < 9 {
				return false
			}
			out := append(append([]byte(nil), req[1:9]...), body...)
			return writeFrame(bw, out) == nil && bw.Flush() == nil
		}
		if !answer([]byte{stOK}) {
			return
		}
		if raw {
			if _, err := readFrame(br, nil); err == nil {
				sc.Write(reply)
			}
			return
		}
		answer(reply)
	}()
	c, err := NewClient(cc, "t")
	if err != nil {
		t.Fatal(err)
	}
	return c, func() { cc.Close(); <-done }
}

// replyBody encodes a reply body (status and fields, no trace).
func replyBody(fill func(*enc)) []byte {
	var e enc
	e.u8(stOK)
	if fill != nil {
		fill(&e)
	}
	return e.b
}

// replyCases is every Client method and Batch reap a server reply
// reaches, each with one well-formed reply. A call checks the invariants
// its caller relies on whatever the reply held, and returns the error.
var replyCases = []struct {
	name  string
	valid []byte
	call  func(t testing.TB, c *Client, f *remoteFile) error
}{
	{"create", replyBody(func(e *enc) { e.u32(3) }), func(_ testing.TB, c *Client, _ *remoteFile) error {
		_, err := c.Create("/f")
		return err
	}},
	{"open", replyBody(func(e *enc) { e.u32(3) }), func(_ testing.TB, c *Client, _ *remoteFile) error {
		_, err := c.Open("/f", vfs.ORdwr)
		return err
	}},
	{"mkdir", replyBody(nil), func(_ testing.TB, c *Client, _ *remoteFile) error { return c.Mkdir("/d") }},
	{"rmdir", replyBody(nil), func(_ testing.TB, c *Client, _ *remoteFile) error { return c.Rmdir("/d") }},
	{"unlink", replyBody(nil), func(_ testing.TB, c *Client, _ *remoteFile) error { return c.Unlink("/f") }},
	{"rename", replyBody(nil), func(_ testing.TB, c *Client, _ *remoteFile) error { return c.Rename("/a", "/b") }},
	{"sync", replyBody(nil), func(_ testing.TB, c *Client, _ *remoteFile) error { return c.Sync() }},
	{"stat", replyBody(func(e *enc) { e.str("f"); e.u64(10); e.u8(0); e.u64(1) }),
		func(_ testing.TB, c *Client, _ *remoteFile) error {
			_, err := c.Stat("/f")
			return err
		}},
	{"readdir", replyBody(func(e *enc) { e.u32(2); e.str("a"); e.u8(0); e.str("b"); e.u8(1) }),
		func(t testing.TB, c *Client, _ *remoteFile) error {
			ents, err := c.ReadDir("/")
			if err == nil && len(ents) > maxFrame/3 {
				t.Errorf("readdir returned %d entries from one frame", len(ents))
			}
			return err
		}},
	{"read", replyBody(func(e *enc) { e.bytes(make([]byte, 16)) }), func(t testing.TB, _ *Client, f *remoteFile) error {
		p := make([]byte, 16)
		n, err := f.ReadAt(p, 0)
		if n < 0 || n > len(p) {
			t.Errorf("ReadAt of %d bytes returned n=%d", len(p), n)
		}
		return err
	}},
	{"write", replyBody(func(e *enc) { e.u32(16) }), func(t testing.TB, _ *Client, f *remoteFile) error {
		n, err := f.WriteAt(make([]byte, 16), 0)
		if n < 0 || n > 16 {
			t.Errorf("WriteAt of 16 bytes returned n=%d", n)
		}
		return err
	}},
	{"fsync", replyBody(nil), func(_ testing.TB, _ *Client, f *remoteFile) error { return f.Fsync() }},
	{"truncate", replyBody(nil), func(_ testing.TB, _ *Client, f *remoteFile) error { return f.Truncate(8) }},
	{"size", replyBody(func(e *enc) { e.u64(10) }), func(_ testing.TB, _ *Client, f *remoteFile) error {
		f.Size()
		return nil
	}},
	{"close", replyBody(nil), func(_ testing.TB, _ *Client, f *remoteFile) error { return f.Close() }},
	{"batch read", replyBody(func(e *enc) { e.bytes(make([]byte, 16)) }), func(t testing.TB, c *Client, f *remoteFile) error {
		return batchReap(t, c, func(b *Batch) *BatchOp { return b.ReadAt(f, make([]byte, 16), 0) })
	}},
	{"batch write", replyBody(func(e *enc) { e.u32(16) }), func(t testing.TB, c *Client, f *remoteFile) error {
		return batchReap(t, c, func(b *Batch) *BatchOp { return b.WriteAt(f, make([]byte, 16), 0) })
	}},
	{"batch fsync", replyBody(nil), func(t testing.TB, c *Client, f *remoteFile) error {
		return batchReap(t, c, func(b *Batch) *BatchOp { return b.Fsync(f) })
	}},
}

// batchReap submits one op through a Batch, waits, and checks the op was
// completed with a byte count inside its buffer.
func batchReap(t testing.TB, c *Client, add func(*Batch) *BatchOp) error {
	b := c.NewBatch()
	o := add(b)
	err := b.Wait()
	if !o.done || o.N < 0 || o.N > len(o.buf) {
		t.Errorf("batch %s: done=%v N=%d for a %d-byte buffer", o.op, o.done, o.N, len(o.buf))
	}
	if err != nil {
		return err
	}
	return o.Err
}

// runReply drives replyCases[i] against a fake server sending reply.
func runReply(t testing.TB, i int, raw bool, reply []byte) error {
	c, stop := fakeServer(t, raw, reply)
	defer stop()
	rc := replyCases[i]
	errc := make(chan error, 1)
	go func() { errc <- rc.call(t, c, &remoteFile{c: c, id: 7}) }()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung on reply %x (raw %v)", rc.name, reply, raw)
		return nil
	}
}

// FuzzClientReply feeds arbitrary replies to every Client method and to a
// Batch reap: replies are the client's input from a peer it does not
// control. Each must come back with a result or an error — never a
// panic, a hang, or a count outside the caller's buffer.
func FuzzClientReply(f *testing.F) {
	for i, rc := range replyCases {
		if err := runReply(f, i, false, rc.valid); err != nil {
			f.Fatalf("%s rejected its valid reply: %v", rc.name, err)
		}
		f.Add(uint8(i), false, rc.valid)
	}
	f.Add(uint8(0), true, []byte{0, 0})                   // torn length prefix
	f.Add(uint8(9), true, []byte{0xff, 0xff, 0xff, 0xff}) // oversized frame
	f.Add(uint8(8), false, replyBody(func(e *enc) { e.u32(MaxIO) }))
	f.Fuzz(func(t *testing.T, method uint8, raw bool, reply []byte) {
		runReply(t, int(method)%len(replyCases), raw, reply)
	})
}

// TestClientReadDirBoundsCount checks that a directory count the server
// claims is bounded by the bytes its frame carries before it sizes an
// allocation: a 1 Mi-entry claim in a 9-byte reply must fail cheaply.
func TestClientReadDirBoundsCount(t *testing.T) {
	c, stop := fakeServer(t, false, replyBody(func(e *enc) { e.u32(MaxIO) }))
	defer stop()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := c.ReadDir("/")
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("readdir accepted a count its reply cannot hold")
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
		t.Fatalf("readdir allocated %d bytes for an empty reply", grew)
	}
}
