package server

import (
	"bufio"
	"bytes"
	"testing"

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
	payload, err := readFrame(bytes.NewReader(wire), nil)
	if err != nil {
		return nil, false
	}
	req = &request{}
	d := dec{b: payload}
	req.op = vfs.Op(d.u8())
	req.trace = d.u64()
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
	write := valid[vfs.OpWrite]
	for name, wire := range map[string][]byte{
		"truncated frame":       write[:len(write)-100],
		"truncated arguments":   frame(byte(vfs.OpRead), handle),
		"opcode past the range": frame(byte(vfs.OpSize)+1, handle),
		"opcode zero":           frame(0, nil),
		"oversized read length": frame(byte(vfs.OpRead), func(e *enc) { e.u32(7); e.u64(0); e.u32(MaxIO + 1) }),
		"oversized frame":       {0xff, 0xff, 0xff, 0xff, byte(vfs.OpSync)},
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
