package pmfs

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
)

// testDev returns a small, zero-latency device for functional tests.
func testDev(t testing.TB, size int64) *nvmm.Device {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func testFS(t testing.TB) (*FS, *nvmm.Device) {
	t.Helper()
	dev := testDev(t, 64<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

func TestMkfsAndRemount(t *testing.T) {
	fs, dev := testFS(t)
	f, err := fs.Create("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello nvmm"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open("/hello.txt", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := f2.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:n]) != "hello nvmm" {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs, _ := testFS(t)
	f, err := fs.Create("/data")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Multi-block write with an unaligned offset.
	data := make([]byte, 3*BlockSize+717)
	for i := range data {
		data[i] = byte(i * 31)
	}
	const off = 2*BlockSize + 123
	if n, err := f.WriteAt(data, off); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if got, want := f.Size(), int64(off+len(data)); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	back := make([]byte, len(data))
	if n, err := f.ReadAt(back, off); err != nil || n != len(back) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("data mismatch after round trip")
	}
	// The hole before the write reads as zeros.
	hole := make([]byte, off)
	if n, err := f.ReadAt(hole, 0); err != nil || n != off {
		t.Fatalf("hole read = %d, %v", n, err)
	}
	for i, b := range hole {
		if b != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, b)
		}
	}
}

func TestReadPastEOF(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/f")
	defer f.Close()
	f.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	// io.ReaderAt contract: a short read reports io.EOF alongside the
	// bytes read; a read at or past EOF reports (0, io.EOF).
	n, err := f.ReadAt(buf, 0)
	if err != io.EOF || n != 3 {
		t.Fatalf("ReadAt = %d, %v; want 3, io.EOF", n, err)
	}
	n, err = f.ReadAt(buf, 100)
	if err != io.EOF || n != 0 {
		t.Fatalf("ReadAt past EOF = %d, %v; want 0, io.EOF", n, err)
	}
	// An exact read up to EOF stays error-free.
	n, err = f.ReadAt(buf[:3], 0)
	if err != nil || n != 3 {
		t.Fatalf("exact ReadAt = %d, %v; want 3, nil", n, err)
	}
}

func TestMkdirTree(t *testing.T) {
	fs, _ := testFS(t)
	for _, d := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatalf("Mkdir(%s): %v", d, err)
		}
	}
	if err := fs.Mkdir("/a"); err != vfs.ErrExist {
		t.Fatalf("duplicate Mkdir = %v, want ErrExist", err)
	}
	f, err := fs.Create("/a/b/c/file")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	ents, err := fs.ReadDir("/a/b/c")
	if err != nil || len(ents) != 1 || ents[0].Name != "file" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := fs.Rmdir("/a/b/c"); err != vfs.ErrNotEmpty {
		t.Fatalf("Rmdir non-empty = %v, want ErrNotEmpty", err)
	}
	if err := fs.Unlink("/a/b/c/file"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/a/b/c"); err != vfs.ErrNotExist {
		t.Fatalf("Stat removed dir = %v", err)
	}
}

// warmRootDir forces the root directory to allocate its dentry block so
// free-space accounting in tests isn't skewed by it.
func warmRootDir(t *testing.T, fs *FS) {
	t.Helper()
	f, err := fs.Create("/.warm")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Unlink("/.warm"); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	fs, _ := testFS(t)
	warmRootDir(t, fs)
	before := fs.FreeBlocks()
	f, _ := fs.Create("/big")
	data := make([]byte, 64*BlockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if free := fs.FreeBlocks(); free >= before {
		t.Fatalf("no blocks consumed: %d >= %d", free, before)
	}
	if err := fs.Unlink("/big"); err != nil {
		t.Fatal(err)
	}
	if free := fs.FreeBlocks(); free != before {
		t.Fatalf("blocks leaked: %d != %d", free, before)
	}
}

func TestUnlinkOpenFileDeferred(t *testing.T) {
	fs, _ := testFS(t)
	warmRootDir(t, fs)
	before := fs.FreeBlocks()
	f, _ := fs.Create("/tmp1")
	f.WriteAt(make([]byte, 8*BlockSize), 0)
	if err := fs.Unlink("/tmp1"); err != nil {
		t.Fatal(err)
	}
	// Still readable through the open handle.
	buf := make([]byte, 8)
	if n, err := f.ReadAt(buf, 0); err != nil || n != 8 {
		t.Fatalf("read after unlink = %d, %v", n, err)
	}
	if _, err := fs.Stat("/tmp1"); err != vfs.ErrNotExist {
		t.Fatalf("Stat after unlink = %v", err)
	}
	f.Close()
	if free := fs.FreeBlocks(); free != before {
		t.Fatalf("blocks leaked after deferred reclaim: %d != %d", free, before)
	}
}

func TestRename(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/old")
	f.WriteAt([]byte("payload"), 0)
	f.Close()
	g, _ := fs.Create("/existing")
	g.WriteAt([]byte("gone"), 0)
	g.Close()
	if err := fs.Rename("/old", "/existing"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/old"); err != vfs.ErrNotExist {
		t.Fatalf("old still exists: %v", err)
	}
	h, err := fs.Open("/existing", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	h.ReadAt(buf, 0)
	if string(buf) != "payload" {
		t.Fatalf("got %q", buf)
	}
	fs.Mkdir("/dir")
	if err := fs.Rename("/existing", "/dir"); err != vfs.ErrIsDir {
		t.Fatalf("rename onto dir = %v", err)
	}
}

func TestTruncate(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/t")
	defer f.Close()
	data := make([]byte, 2*BlockSize)
	for i := range data {
		data[i] = 0xAB
	}
	f.WriteAt(data, 0)
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100 {
		t.Fatalf("size = %d", f.Size())
	}
	// Extending again must expose zeros beyond 100.
	if err := f.Truncate(200); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 200)
	f.ReadAt(buf, 0)
	for i := 100; i < 200; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d = %#x after re-extend, want 0", i, buf[i])
		}
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0xAB {
			t.Fatalf("byte %d lost", i)
		}
	}
}

func TestAppendFlag(t *testing.T) {
	fs, _ := testFS(t)
	f, err := fs.Open("/log", vfs.OCreate|vfs.OWronly|vfs.OAppend)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 10; i++ {
		if _, err := f.WriteAt([]byte(fmt.Sprintf("line-%d\n", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if f.Size() != 70 {
		t.Fatalf("size = %d, want 70", f.Size())
	}
}

func TestLargeSparseFile(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/sparse")
	defer f.Close()
	// Forces tree height growth: block index far beyond 512.
	const idx = 512*3 + 7
	if _, err := f.WriteAt([]byte("deep"), idx*BlockSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, idx*BlockSize); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "deep" {
		t.Fatalf("got %q", buf)
	}
	// A hole in the middle reads zero.
	mid := make([]byte, 64)
	f.ReadAt(mid, 1000*int64(BlockSize/2))
	for _, b := range mid {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestOpenTrunc(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/x")
	f.WriteAt(make([]byte, 5000), 0)
	f.Close()
	g, err := fs.Open("/x", vfs.ORdwr|vfs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Size() != 0 {
		t.Fatalf("size after O_TRUNC = %d", g.Size())
	}
}

func TestStatBlocks(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/b")
	f.WriteAt(make([]byte, 3*BlockSize), 0)
	f.Close()
	fi, err := fs.Stat("/b")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Blocks != 3 {
		t.Fatalf("Blocks = %d, want 3", fi.Blocks)
	}
}

func TestCrashRecoveryRollsBackTornMetadata(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 64 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/durable")
	f.WriteAt([]byte("committed"), 0)
	f.Close()

	// Start a transaction that journals and modifies metadata but never
	// commits, then crash.
	tx := fs.jnl.Begin()
	rec := fs.loadInode(RootIno)
	mangled := rec
	mangled.Size = 999999
	fs.storeInode(tx, RootIno, mangled)
	// No commit. Power loss:
	dev.Crash()

	fs2, rolled, err := MountRecover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if rolled == 0 {
		t.Fatal("recovery rolled back nothing")
	}
	got := fs2.loadInode(RootIno)
	if got.Size != rec.Size {
		t.Fatalf("root size = %d, want %d (undo failed)", got.Size, rec.Size)
	}
	// The committed file survives.
	g, err := fs2.Open("/durable", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	g.ReadAt(buf, 0)
	if string(buf) != "committed" {
		t.Fatalf("got %q", buf)
	}
}

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	fs, _ := testFS(t)
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			path := fmt.Sprintf("/w%d", w)
			f, err := fs.Create(path)
			if err != nil {
				done <- err
				return
			}
			defer f.Close()
			data := bytes.Repeat([]byte{byte(w + 1)}, BlockSize)
			for i := 0; i < 16; i++ {
				if _, err := f.WriteAt(data, int64(i)*BlockSize); err != nil {
					done <- err
					return
				}
			}
			buf := make([]byte, BlockSize)
			for i := 0; i < 16; i++ {
				f.ReadAt(buf, int64(i)*BlockSize)
				if buf[0] != byte(w+1) || buf[BlockSize-1] != byte(w+1) {
					done <- fmt.Errorf("worker %d: corrupt read", w)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMmapBlock(t *testing.T) {
	fs, dev := testFS(t)
	f, err := fs.OpenFile("/m", vfs.OCreate|vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := f.MmapBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(m, "direct store")
	// The store is visible through the read path immediately.
	buf := make([]byte, 12)
	f.ReadAt(buf, 0)
	if string(buf) != "direct store" {
		t.Fatalf("got %q", buf)
	}
	runtime.KeepAlive(fs) // m aliases the device image, which dies with it
	_ = dev
}

func TestRenameToSelfIsNoop(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/same")
	f.WriteAt([]byte("keep"), 0)
	f.Close()
	if err := fs.Rename("/same", "/same"); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("/same", vfs.ORdonly)
	if err != nil {
		t.Fatalf("file vanished after self-rename: %v", err)
	}
	buf := make([]byte, 4)
	g.ReadAt(buf, 0)
	if string(buf) != "keep" {
		t.Fatalf("content lost: %q", buf)
	}
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("image inconsistent: %v", errs)
	}
}
