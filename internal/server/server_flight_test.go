package server

import (
	"io"
	"testing"

	"hinfs/internal/nvmm"
	"hinfs/internal/obs/flight"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

// testFlightFS builds a pmfs with an NVMM flight region, returning the
// fs, its recorder, and the device (for decoding the ring back).
func testFlightFS(t testing.TB) (*pmfs.FS, *flight.Recorder, *nvmm.Device) {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pmfs.Mkfs(dev, pmfs.Options{MaxInodes: 8192, FlightBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	rec := fs.Flight()
	if rec == nil {
		t.Fatal("pmfs formatted with FlightBlocks has no recorder")
	}
	return fs, rec, dev
}

// TestServerFlightEndToEnd drives requests through the full wire stack
// and decodes the NVMM ring back: every dispatched request must appear
// exactly once with the trace the client predicted, the right tenant,
// the right canonical op, and a success result.
func TestServerFlightEndToEnd(t *testing.T) {
	fs, rec, dev := testFlightFS(t)
	srv, err := New(Config{FS: fs, Tenants: twoTenants(), Workers: 2, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := pipeClient(t, srv, "alpha")
	const base = uint64(7) << 32
	c.SetTraceBase(base)

	f, err := c.Create("/a") // trace base+1
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := f.WriteAt(buf, 0); err != nil { // base+2
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil { // base+3
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 0); err != nil { // base+4
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // base+5
		t.Fatal(err)
	}
	// Records land just after each reply is written; closing the server
	// drains every session, so the decode below cannot race an in-flight
	// append.
	c.Unmount()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Seq(); got < 5 {
		t.Fatalf("recorder at seq %d after drain, want >= 5", got)
	}

	off, size := fs.FlightRegion()
	log, err := flight.Decode(dev, off, size)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		trace uint64
		op    vfs.Op
	}{
		{base + 1, vfs.OpCreate},
		{base + 2, vfs.OpWrite},
		{base + 3, vfs.OpFsync},
		{base + 4, vfs.OpRead},
		{base + 5, vfs.OpClose},
	}
	byTrace := map[uint64]*flight.Record{}
	for i := range log.Records {
		byTrace[log.Records[i].Trace] = &log.Records[i]
	}
	for _, w := range want {
		r := byTrace[w.trace]
		if r == nil {
			t.Fatalf("trace %#x missing from the decoded ring (%d records)", w.trace, len(log.Records))
		}
		if r.Op != w.op {
			t.Errorf("trace %#x: op %s, want %s", w.trace, r.Op, w.op)
		}
		if r.Tenant != "alpha" {
			t.Errorf("trace %#x: tenant %q, want alpha", w.trace, r.Tenant)
		}
		if r.Result != 0 {
			t.Errorf("trace %#x: result %d, want 0", w.trace, r.Result)
		}
	}
	wr := byTrace[base+2]
	if wr.Len != 512 || wr.Off != 0 {
		t.Errorf("write record: len %d off %d, want 512/0", wr.Len, wr.Off)
	}
	if wr.Ino == 0 {
		t.Errorf("write record: ino 0, want the file's inode number")
	}
	if byTrace[base+4].Len != 512 {
		t.Errorf("read record: len %d, want 512", byTrace[base+4].Len)
	}
}

// TestServerFlightRecordFields pins the per-op rule that fills a record's
// offset and length. Requests are pooled, so an op that decodes no offset
// must not inherit the previous request's; a read records the bytes it
// returned, not the bytes asked for; a truncate records the new size.
func TestServerFlightRecordFields(t *testing.T) {
	fs, rec, dev := testFlightFS(t)
	// One worker and one synchronous client: every request reuses the
	// pooled envelope the previous one returned.
	srv, err := New(Config{FS: fs, Tenants: twoTenants(), Workers: 1, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := pipeClient(t, srv, "alpha")
	const base = uint64(9) << 32
	c.SetTraceBase(base)

	f, err := c.Create("/a") // base+1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 512), 4096); err != nil { // base+2
		t.Fatal(err)
	}
	if err := c.Mkdir("/d"); err != nil { // base+3
		t.Fatal(err)
	}
	if _, err := c.Stat("/d"); err != nil { // base+4
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil { // base+5
		t.Fatal(err)
	}
	// 4608-byte file: a 512-byte read at 4500 returns 108 bytes and EOF.
	if n, err := f.ReadAt(make([]byte, 512), 4500); n != 108 || err != io.EOF { // base+6
		t.Fatalf("short read = %d, %v; want 108, EOF", n, err)
	}
	if err := f.Truncate(1000); err != nil { // base+7
		t.Fatal(err)
	}
	if got := f.Size(); got != 1000 { // base+8
		t.Fatalf("size = %d", got)
	}
	c.Unmount()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	off, size := fs.FlightRegion()
	log, err := flight.Decode(dev, off, size)
	if err != nil {
		t.Fatal(err)
	}
	byTrace := map[uint64]flight.Record{}
	for _, r := range log.Records {
		byTrace[r.Trace] = r
	}
	for _, w := range []struct {
		trace uint64
		op    vfs.Op
		off   int64
		len   uint32
	}{
		{base + 2, vfs.OpWrite, 4096, 512},
		{base + 3, vfs.OpMkdir, 0, 0},
		{base + 4, vfs.OpStat, 0, 0},
		{base + 5, vfs.OpFsync, 0, 0},
		{base + 6, vfs.OpRead, 4500, 108},
		{base + 7, vfs.OpTruncate, 1000, 0},
		{base + 8, vfs.OpStat, 0, 0}, // a size request is recorded as stat
	} {
		r, ok := byTrace[w.trace]
		if !ok {
			t.Fatalf("trace %#x missing from the decoded ring", w.trace)
		}
		if r.Op != w.op || r.Off != w.off || r.Len != w.len {
			t.Errorf("trace %#x: %s off %d len %d, want %s off %d len %d",
				w.trace, r.Op, r.Off, r.Len, w.op, w.off, w.len)
		}
	}
}

// TestServerFlightSteadyStateAllocs repeats the end-to-end allocation
// check with the recorder on: recording must add nothing to the per-op
// budget of zero (Record encodes into a stack buffer and issues one
// posted NT store).
func TestServerFlightSteadyStateAllocs(t *testing.T) {
	fs, rec, _ := testFlightFS(t)
	srv, err := New(Config{FS: fs, Tenants: twoTenants(), Workers: 4, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if n := syncRPCAllocs(t, srv); n != 0 {
		t.Fatalf("synchronous ReadAt+WriteAt+Fsync with flight on allocates %.1f objects, want 0", n)
	}
	if rec.Seq() == 0 {
		t.Fatal("the recorder saw no request")
	}
}
