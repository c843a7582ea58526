package harness

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"hinfs/internal/server"
	"hinfs/internal/vfs"
)

// conformanceCases is the named behavioural suite every system under test
// must pass: the same semantics must hold whether the data path is a DRAM
// write buffer, direct NVMM access, or a page cache over a block device.
// Each case owns a distinct path prefix, so the whole list runs once per
// file-system view.
var conformanceCases = []struct {
	name string
	run  func(t *testing.T, fs vfs.FileSystem)
}{
	{"round-trip", conformRoundTrip},
	{"append", conformAppend},
	{"truncate", conformTruncate},
	{"namespace", conformNamespace},
	{"fsync", conformFsync},
	{"sparse", conformSparse},
	{"overwrite", conformOverwrite},
	{"overflowing-write", conformOverflowingWrite},
}

// conformConfig is sized for semantics, not performance: latencies are
// collapsed so the suite exercises code paths, not the clock.
func conformConfig() Config {
	return Config{
		DeviceSize:      96 << 20,
		WriteLatency:    time.Nanosecond,
		ReadLatency:     time.Nanosecond,
		SyscallOverhead: time.Nanosecond,
		BlockOverhead:   time.Nanosecond,
		TimeScale:       1,
	}
}

// hinfsFamily reports whether sys is one of the HiNFS variants, whose
// handles expose the block-mmap capability (§4.2); the baselines and any
// remote handle do not.
func hinfsFamily(sys System) bool {
	switch sys {
	case HiNFS, HiNFSNCLFW, HiNFSWB:
		return true
	}
	return false
}

// TestConformance runs the case list against every system twice: once
// directly on the instance's file system, and once through the framed-RPC
// loopback server (net.Pipe, one tenant confined under /export), so the
// wire protocol is held to the same contract as the local API. Each mode
// also checks the capability matrix: block mmap is discoverable via
// vfs.FileAs exactly on direct HiNFS-family handles — a remote handle
// must never claim a memory-mapping capability it cannot honour.
func TestConformance(t *testing.T) {
	systems := []System{HiNFS, HiNFSNCLFW, HiNFSWB, PMFS, EXT4DAX, EXT2NVMMBD, EXT4NVMMBD}
	for _, sys := range systems {
		t.Run(string(sys), func(t *testing.T) {
			t.Run("direct", func(t *testing.T) {
				inst, err := NewInstance(sys, conformConfig())
				if err != nil {
					t.Fatal(err)
				}
				defer inst.Close()
				runConformance(t, inst.FS, hinfsFamily(sys))
			})
			t.Run("loopback", func(t *testing.T) {
				fs, cleanup := loopbackFS(t, sys)
				defer cleanup()
				runConformance(t, fs, false)
			})
		})
	}
}

// runConformance runs every named case plus the capability probe against
// one file-system view.
func runConformance(t *testing.T, fs vfs.FileSystem, wantBlockMmap bool) {
	for _, c := range conformanceCases {
		t.Run(c.name, func(t *testing.T) { c.run(t, fs) })
	}
	t.Run("block-mmap-capability", func(t *testing.T) {
		conformBlockMmap(t, fs, wantBlockMmap)
	})
}

// loopbackFS stands up a fresh instance of sys behind a single-tenant
// server over net.Pipe and returns the attached client, which implements
// vfs.FileSystem, so the conformance cases run unchanged over the wire.
func loopbackFS(t *testing.T, sys System) (vfs.FileSystem, func()) {
	t.Helper()
	inst, err := NewInstance(sys, conformConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		FS:      inst.FS,
		Tenants: map[string]server.TenantConfig{"conform": {Root: "/export", Weight: 1}},
		Workers: 2,
	})
	if err != nil {
		inst.Close()
		t.Fatal(err)
	}
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	c, err := server.NewClient(cs, "conform")
	if err != nil {
		srv.Close()
		inst.Close()
		t.Fatal(err)
	}
	return c, func() {
		c.Unmount()
		srv.Close()
		inst.Close()
	}
}

// conformBlockMmap checks the capability matrix: FileAs must discover a
// BlockMmapper through any decoration chain exactly when the backing
// handle really maps device memory, and a discovered capability must
// round-trip a store through the mapping.
func conformBlockMmap(t *testing.T, fs vfs.FileSystem, want bool) {
	f, err := fs.Create("/mmapcap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xAB}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	m, ok := vfs.FileAs[vfs.BlockMmapper](f)
	if ok != want {
		t.Fatalf("HasBlockMmap = %v, want %v", ok, want)
	}
	if vfs.HasBlockMmap(f) != want {
		t.Fatalf("vfs.HasBlockMmap disagrees with FileAs")
	}
	if !ok {
		return
	}
	seg, err := m.Mmap(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) == 0 || seg[0] != 0xAB {
		t.Fatalf("mapped block starts %#x, want 0xAB", seg[0])
	}
	seg[1] = 0x5C
	if err := m.Msync(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Munmap(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB || got[1] != 0x5C {
		t.Fatalf("store through mapping not visible: % x", got)
	}
	runtime.KeepAlive(fs) // seg aliases the device image, which dies with it
}

func conformRoundTrip(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	f, err := fs.Create("/rt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, 3*4096+357)
	for i := range data {
		data[i] = byte(i*13 + 7)
	}
	if n, err := f.WriteAt(data, 1234); err != nil || n != len(data) {
		t.Fatalf("write %d %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 1234); err != nil || n != len(got) {
		t.Fatalf("read %d %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Hole reads zero.
	hole := make([]byte, 1234)
	f.ReadAt(hole, 0)
	for i, b := range hole {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x", i, b)
		}
	}
	if f.Size() != int64(1234+len(data)) {
		t.Fatalf("size %d", f.Size())
	}
}

func conformAppend(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	f, err := fs.Open("/log", vfs.OCreate|vfs.OWronly|vfs.OAppend)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.WriteAt([]byte(fmt.Sprintf("%03d\n", i)), 0)
	}
	if f.Size() != 80 {
		t.Fatalf("append size %d, want 80", f.Size())
	}
	f.Close()
	g, _ := fs.Open("/log", vfs.ORdonly)
	defer g.Close()
	buf := make([]byte, 8)
	g.ReadAt(buf, 72)
	if string(buf) != "018\n019\n" {
		t.Fatalf("tail %q", buf)
	}
}

func conformTruncate(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	f, _ := fs.Create("/tr")
	defer f.Close()
	f.WriteAt(bytes.Repeat([]byte{0xEE}, 2*4096), 0)
	f.Truncate(100)
	f.Truncate(8192)
	buf := make([]byte, 8192)
	f.ReadAt(buf, 0)
	for i := 0; i < 100; i++ {
		if buf[i] != 0xEE {
			t.Fatalf("kept byte %d lost", i)
		}
	}
	for i := 100; i < 8192; i++ {
		if buf[i] != 0 {
			t.Fatalf("stale byte %d = %#x after truncate+extend", i, buf[i])
		}
	}
}

func conformNamespace(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	if err := fs.Mkdir("/ns"); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/ns/a")
	f.WriteAt([]byte("v"), 0)
	f.Close()
	if err := fs.Rename("/ns/a", "/ns/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/ns/a"); err != vfs.ErrNotExist {
		t.Fatalf("stat old = %v", err)
	}
	ents, err := fs.ReadDir("/ns")
	if err != nil || len(ents) != 1 || ents[0].Name != "b" {
		t.Fatalf("readdir %v %v", ents, err)
	}
	if err := fs.Rmdir("/ns"); err != vfs.ErrNotEmpty {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	if err := fs.Unlink("/ns/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/ns"); err != nil {
		t.Fatal(err)
	}
}

func conformFsync(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	f, _ := fs.Create("/fsync")
	defer f.Close()
	f.WriteAt([]byte("durable"), 0)
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	f.ReadAt(buf, 0)
	if string(buf) != "durable" {
		t.Fatalf("got %q", buf)
	}
}

func conformSparse(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	f, _ := fs.Create("/sparse")
	defer f.Close()
	// An offset in the indirect range for extfs (block > 10).
	const off = 300 * 4096
	f.WriteAt([]byte("far"), off)
	buf := make([]byte, 3)
	f.ReadAt(buf, off)
	if string(buf) != "far" {
		t.Fatalf("got %q", buf)
	}
	mid := make([]byte, 64)
	f.ReadAt(mid, off/2)
	for _, b := range mid {
		if b != 0 {
			t.Fatal("sparse middle not zero")
		}
	}
}

func conformOverwrite(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	f, _ := fs.Create("/ow")
	defer f.Close()
	f.WriteAt(bytes.Repeat([]byte{0x11}, 4096), 0)
	f.Fsync()
	f.WriteAt(bytes.Repeat([]byte{0x22}, 128), 1000)
	f.WriteAt(bytes.Repeat([]byte{0x33}, 64), 1032)
	buf := make([]byte, 4096)
	f.ReadAt(buf, 0)
	for i := 0; i < 4096; i++ {
		want := byte(0x11)
		switch {
		case i >= 1032 && i < 1096:
			want = 0x33
		case i >= 1000 && i < 1128:
			want = 0x22
		}
		if buf[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, buf[i], want)
		}
	}
}

// conformOverflowingWrite: a write whose end would pass the largest int64
// offset is an error that writes nothing, wherever its offset lands.
func conformOverflowingWrite(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	f, err := fs.Create("/ovf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("keep"), 0); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{math.MaxInt64 - 2, math.MaxInt64 - 4095} {
		if n, err := f.WriteAt(make([]byte, 4096), off); err == nil || n != 0 {
			t.Fatalf("WriteAt(4096 B, %#x) = %d, %v; want 0 and an error", off, n, err)
		}
	}
	if f.Size() != 4 {
		t.Fatalf("size %d after rejected writes, want 4", f.Size())
	}
}
