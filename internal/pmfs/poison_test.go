package pmfs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
)

// poisonedFS formats a device whose every data byte reads 0xEE, so every
// block the allocator hands out — fresh or reused — carries "a previous
// owner's" bytes. No test payload has the high bit set: a poison byte read
// back from a file is a byte the file never owned.
func poisonedFS(t testing.TB, size int64, opts Options) (*FS, *nvmm.Device) {
	t.Helper()
	dev := testDev(t, size)
	blk := bytes.Repeat([]byte{0xEE}, BlockSize)
	for off := int64(0); off < size; off += BlockSize {
		dev.Write(blk, off)
	}
	fs, err := Mkfs(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

func readAll(t testing.TB, fs *FS, path string) []byte {
	t.Helper()
	f, err := fs.Open(path, vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, f.Size())
	if n, err := f.ReadAt(got, 0); n != len(got) || (err != nil && err != io.EOF) {
		t.Fatalf("read %s: %d of %d bytes, %v", path, n, len(got), err)
	}
	return got
}

func payload(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(0x7f)) + 1
	}
	return data
}

// TestPoisonedDeviceMatchesModel drives random (off, n) writes into fresh and
// reused blocks through pmfs.File, interleaved with unlink, truncate down and
// truncate up, and compares each file with a zero-filled in-memory model,
// live and again after Unmount + Mount. A byte zeroEdges or zeroGap failed
// to zero — or zeroed although a write covered it — shows as a mismatch.
func TestPoisonedDeviceMatchesModel(t *testing.T) {
	fs, dev := poisonedFS(t, 32<<20, Options{MaxInodes: 256})
	rng := rand.New(rand.NewSource(20160418))
	const files = 6
	model := make([][]byte, files)
	open := make([]vfs.File, files)
	path := func(i int) string { return fmt.Sprintf("/p%d", i) }
	check := func(fs *FS, when string) {
		t.Helper()
		for i := range model {
			if model[i] == nil {
				continue
			}
			if got := readAll(t, fs, path(i)); !bytes.Equal(got, model[i]) {
				at := 0
				for at < len(got) && at < len(model[i]) && got[at] == model[i][at] {
					at++
				}
				t.Fatalf("%s: %s: size %d (model %d), first difference at byte %d", when, path(i), len(got), len(model[i]), at)
			}
		}
	}
	for op := 0; op < 800; op++ {
		i := rng.Intn(files)
		if open[i] == nil {
			f, err := fs.Create(path(i))
			if err != nil {
				t.Fatal(err)
			}
			open[i], model[i] = f, []byte{}
		}
		f := open[i]
		switch k := rng.Intn(20); {
		case k < 13: // write: anywhere up to two blocks past EOF, up to three blocks long
			off := rng.Intn(len(model[i]) + 2*BlockSize)
			n := 1 + rng.Intn(3*BlockSize)
			if rng.Intn(3) == 0 {
				n = 1 + rng.Intn(63)
			}
			data := payload(rng, n)
			if _, err := f.WriteAt(data, int64(off)); err != nil {
				t.Fatal(err)
			}
			if end := off + n; end > len(model[i]) {
				model[i] = append(model[i], make([]byte, end-len(model[i]))...)
			}
			copy(model[i][off:], data)
		case k < 17: // truncate down or up
			size := rng.Intn(len(model[i]) + 2*BlockSize)
			if err := f.Truncate(int64(size)); err != nil {
				t.Fatal(err)
			}
			if size <= len(model[i]) {
				model[i] = model[i][:size]
			} else {
				model[i] = append(model[i], make([]byte, size-len(model[i]))...)
			}
		case k < 19: // unlink: the blocks go back to the allocator full of payload
			f.Close()
			if err := fs.Unlink(path(i)); err != nil {
				t.Fatal(err)
			}
			open[i], model[i] = nil, nil
		default:
			check(fs, fmt.Sprintf("live, op %d", op))
		}
	}
	check(fs, "live, end")
	for _, f := range open {
		if f != nil {
			f.Close()
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if errs := fs2.Check(); len(errs) != 0 {
		t.Fatalf("check after remount: %v", errs)
	}
	check(fs2, "after remount")
}

// TestFreshBlockZeroedOnlyAtItsEdges pins the zeroing rule's cost: a byte is
// zeroed when the file's size first covers it and no write does, and no byte
// is zeroed twice. A write that covers a fresh block zeroes none of it; one
// that covers part of it zeroes the head below it and, for a hole filled
// below EOF, the tail up to the size — but nothing past EOF, which stays as
// the allocator left it (poison here). A write that starts past EOF, or a
// truncate up, zeroes exactly the gap it exposes in the block that held EOF.
func TestFreshBlockZeroedOnlyAtItsEdges(t *testing.T) {
	fs, dev := poisonedFS(t, 16<<20, Options{MaxInodes: 64})
	v, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f := v.(*File)
	defer f.Close()
	// The first write pays for the file's index block — five blocks are
	// more than the inode addresses directly; measure after it.
	if _, err := f.WriteAt(make([]byte, 5*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	write := func(off, n int64) func() error {
		return func() error {
			_, err := f.WriteAt(payload(rand.New(rand.NewSource(off)), int(n)), off)
			return err
		}
	}
	truncate := func(size int64) func() error { return func() error { return f.Truncate(size) } }
	const B = BlockSize
	cases := []struct {
		name      string
		op        func() error
		off, n    int64 // the data written, if any
		zeroed    int64 // bytes of whole cachelines the rule must flush
		tailStays bool  // the EOF block's bytes past EOF must still read poison
	}{
		{"four covered blocks", write(5*B, 4*B), 5 * B, 4 * B, 0, false},
		// [0,100) of block 9 is two lines; EOF sat on a block boundary.
		{"head of a fresh block", write(9*B+100, 2*B-100), 9*B + 100, 2*B - 100, 128, false},
		{"end past EOF in a fresh block", write(11*B, B+192), 11 * B, B + 192, 0, true},
		// EOF at 12B+192: the gap [192, 1000) of block 12 is lines 3-15.
		{"start past EOF in its block", write(12*B+1000, 100), 12*B + 1000, 100, 13 * 64, true},
		// EOF at 12B+1100: the gap [1100, B) of block 12 is lines 17-63,
		// and the head [0, 640) of block 13 ten more.
		{"start past EOF in a new block", write(13*B+640, 64), 13*B + 640, 64, 47*64 + 640, true},
		// EOF at 13B+704: the gap [704, B) of block 13 is lines 11-63.
		{"truncate up", truncate(16*B + 10), 0, 0, 53 * 64, false},
		// EOF sits in block 16, a hole: nothing exists to zero.
		{"truncate up from a hole", truncate(19*B + 2000), 0, 0, 0, false},
		// Block 17 is a hole below EOF: its head [0,100) and tail [300, B).
		{"hole below EOF", write(17*B+100, 200), 17*B + 100, 200, 2*64 + 60*64, false},
		// Block 19 holds EOF at 2000: the tail is zeroed up to it — [164,
		// 2000) is lines 2-31 — and no further.
		{"hole holding EOF", write(19*B+100, 64), 19*B + 100, 64, 2*64 + 30*64, false},
	}
	for _, c := range cases {
		before := dev.Stats()
		if err := c.op(); err != nil {
			t.Fatal(err)
		}
		after := dev.Stats()
		// NT stores carry the data, cached stores the zeroes and metadata.
		dataLines := int64(0)
		if c.n > 0 {
			dataLines = (c.off+c.n+63)/64 - c.off/64
		}
		metadata := after.BytesFlushed - before.BytesFlushed - dataLines*64 - c.zeroed
		if metadata < 0 || metadata > 16*64 {
			t.Errorf("%s: flushed %d bytes = %d data + %d zeroes + %d metadata; want at most 16 metadata lines",
				c.name, after.BytesFlushed-before.BytesFlushed, dataLines*64, c.zeroed, metadata)
		}
		if c.tailStays {
			size := f.Size()
			tail := make([]byte, B-size%B)
			dev.Read(tail, f.BlockAddrLocked(size/B)+size%B)
			if !bytes.Equal(tail, bytes.Repeat([]byte{0xEE}, len(tail))) {
				t.Errorf("%s: a byte past EOF %d was stored", c.name, size)
			}
		}
	}
	got := readAll(t, fs, "/f")
	for i, b := range got {
		if b&0x80 != 0 {
			t.Fatalf("byte %d of %d reads %#x: poison", i, len(got), b)
		}
	}
}

// TestMmapBlockOfReusedBlockIsZero: an mmap'ed block is written by nobody
// before its transaction commits, so it keeps the whole-block zeroing.
func TestMmapBlockOfReusedBlockIsZero(t *testing.T) {
	fs, dev := poisonedFS(t, 16<<20, Options{MaxInodes: 64})
	// Give the allocator reused blocks too, full of payload.
	g, _ := fs.Create("/old")
	g.WriteAt(bytes.Repeat([]byte{0x55}, 8*BlockSize), 0)
	g.Close()
	if err := fs.Unlink("/old"); err != nil {
		t.Fatal(err)
	}
	v, err := fs.Create("/m")
	if err != nil {
		t.Fatal(err)
	}
	f := v.(*File)
	defer f.Close()
	for _, idx := range []int64{0, 3, 1} {
		m, err := f.MmapBlock(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m, make([]byte, BlockSize)) {
			t.Fatalf("mmap of fresh block %d is not all zeroes", idx)
		}
	}

	// A block that holds EOF exposes its bytes past EOF to the mapping: a
	// fresh block's tail (poison), or what a truncate cut off (payload).
	// Mapping it, or a block past it, must show them as zeroes.
	cases := []struct {
		path               string
		written, size, idx int64
	}{
		{"/tail", 100, 100, 0},                             // fresh tail, the EOF block mapped
		{"/cut", 3000, 100, 0},                             // truncated tail, the EOF block mapped
		{"/past", 2*BlockSize + 100, 2*BlockSize + 100, 3}, // a block past EOF mapped
	}
	want := map[string][]byte{}
	for _, c := range cases {
		v, err := fs.Create(c.path)
		if err != nil {
			t.Fatal(err)
		}
		g := v.(*File)
		if _, err := g.WriteAt(payload(rand.New(rand.NewSource(c.written)), int(c.written)), 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Truncate(c.size); err != nil {
			t.Fatal(err)
		}
		if _, err := g.MmapBlock(c.idx); err != nil {
			t.Fatal(err)
		}
		g.Close()
		got := readAll(t, fs, c.path)
		if int64(len(got)) != (c.idx+1)*BlockSize {
			t.Fatalf("%s: size %d after mapping block %d", c.path, len(got), c.idx)
		}
		if tail := got[c.size:]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatalf("%s: the bytes past the old EOF %d are not all zero", c.path, c.size)
		}
		want[c.path] = got
	}
	f.Close()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	for path, w := range want {
		if got := readAll(t, fs2, path); !bytes.Equal(got, w) {
			t.Fatalf("%s differs after remount", path)
		}
	}
}

// TestMmapBlockRejectsOverflowingIndex: an index whose byte offset does not
// fit in an int64 used to wrap onto a real block — 1<<52+1 times BlockSize is
// 4096 — and map it. It is rejected before anything changes.
func TestMmapBlockRejectsOverflowingIndex(t *testing.T) {
	fs, _ := testFS(t)
	v, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f := v.(*File)
	defer f.Close()
	for _, idx := range []int64{1<<52 + 1, MaxBlockIndex + 1, math.MaxInt64, -1} {
		if _, err := f.MmapBlock(idx); err != vfs.ErrInvalid {
			t.Fatalf("MmapBlock(%d) = %v, want ErrInvalid", idx, err)
		}
	}
	if fi, _ := fs.Stat("/f"); fi.Size != 0 || fi.Blocks != 0 {
		t.Fatalf("rejected maps left size %d, %d blocks", fi.Size, fi.Blocks)
	}
}

// TestENOSPCMidRangeLeavesNoPoison: a write that runs out of space after
// allocating part of its range fails, but the blocks it did allocate stay in
// the file beyond EOF. Nothing was written to them, so they must have been
// zeroed whole: extending the file later exposes them.
func TestENOSPCMidRangeLeavesNoPoison(t *testing.T) {
	fs, _ := poisonedFS(t, 8<<20, Options{MaxInodes: 64, JournalBlocks: 64})
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// One write spanning two leaves, with room for the first leaf's 512
	// blocks but not the second's: treeEnsureRange allocates leaf by leaf
	// and fails in the second. Leave 512 + 8 free blocks (root, two leaves
	// and a few to spare, but nowhere near 512 + 400).
	hog, _ := fs.Create("/hog")
	for fs.FreeBlocks() > 520+64 {
		if _, err := hog.WriteAt(make([]byte, 64*BlockSize), hog.Size()); err != nil {
			t.Fatal(err)
		}
	}
	for fs.FreeBlocks() > 520 {
		if _, err := hog.WriteAt(make([]byte, BlockSize), hog.Size()); err != nil {
			t.Fatal(err)
		}
	}
	hog.Close()
	if _, err := f.WriteAt(payload(rand.New(rand.NewSource(1)), 912*BlockSize), 0); err != vfs.ErrNoSpace {
		t.Fatalf("oversized write: %v, want ErrNoSpace", err)
	}
	if f.Size() != 0 {
		t.Fatalf("failed write left size %d", f.Size())
	}
	fi, _ := fs.Stat("/f")
	if fi.Blocks == 0 {
		t.Fatal("the failed write allocated nothing: the test does not reach the roll-forward path")
	}
	// Extend over whatever it left behind.
	if err := f.Truncate(912 * BlockSize); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, fs, "/f")
	if !bytes.Equal(got, make([]byte, len(got))) {
		for i, b := range got {
			if b != 0 {
				t.Fatalf("byte %d (block %d) of the extended file reads %#x, want 0", i, i/BlockSize, b)
			}
		}
	}
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("check: %v", errs)
	}
}

// TestFreeOfLargeFileIsChunked: freeing a tree logs an entry or two per
// block, and a transaction that outgrows its journal lane waits on itself
// forever — unlinking or truncating a 32 MiB file at the default geometry
// used to. The free now goes in bounded chunks.
func TestFreeOfLargeFileIsChunked(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		dev := testDev(t, 128<<20)
		fs, err := Mkfs(dev, Options{MaxInodes: 64})
		if err != nil {
			t.Error(err)
			return
		}
		const size = 32 << 20
		chunk := make([]byte, 1<<20)
		for _, name := range []string{"/unlinked", "/truncated"} {
			f, err := fs.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			for off := int64(0); off < size; off += int64(len(chunk)) {
				if _, err := f.WriteAt(chunk, off); err != nil {
					t.Error(err)
					return
				}
			}
			if err := f.Fsync(); err != nil {
				t.Error(err)
			}
			f.Close()
		}
		free := fs.FreeBlocks()
		commits := fs.Journal().Stats().Commits
		if err := fs.Unlink("/unlinked"); err != nil {
			t.Error(err)
		}
		f, _ := fs.Open("/truncated", vfs.ORdwr)
		if err := f.Truncate(BlockSize); err != nil {
			t.Error(err)
		}
		f.Close()
		if got := fs.Journal().Stats().Commits - commits; got < 2*size/BlockSize/fs.freeChunk() {
			t.Errorf("two 8192-block frees took %d transactions at %d blocks a chunk", got, fs.freeChunk())
		}
		// The unlink frees 8192 data blocks, 16 leaves and the root; the
		// truncate keeps block 0, its leaf and the root.
		if got := fs.FreeBlocks() - free; got != (8192+16+1)+(8191+15) {
			t.Errorf("freed %d blocks", got)
		}
		if fi, _ := fs.Stat("/truncated"); fi.Size != BlockSize || fi.Blocks != 1 {
			t.Errorf("truncated file: size %d blocks %d", fi.Size, fi.Blocks)
		}
		if errs := fs.Check(); len(errs) != 0 {
			t.Errorf("check: %v", errs)
		}
		if err := fs.Unmount(); err != nil {
			t.Error(err)
		}
		fs2, err := Mount(dev)
		if err != nil {
			t.Error(err)
			return
		}
		if errs := fs2.Check(); len(errs) != 0 {
			t.Errorf("check after remount: %v", errs)
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("freeing a 32 MiB file did not finish: the free transaction outgrew its journal lane")
	}
}

// TestChunkedFreeCrashImages crashes at every persist event of a truncate
// and of an unlink that each take ten chunk transactions. Every image must
// recover to a consistent file system; the truncated file must be a longer
// truncation of itself (its old content up to a size between the old and the
// new one: a truncate stores nothing into the block the new EOF sits in), the
// unlinked file must be gone whole, its blocks not leaked.
func TestChunkedFreeCrashImages(t *testing.T) {
	const blocks = 24
	want := payload(rand.New(rand.NewSource(7)), blocks*BlockSize)
	const newSize = BlockSize + 10
	for _, unlink := range []bool{false, true} {
		dev, err := nvmm.New(nvmm.Config{Size: 8 << 20, TrackPersistence: true})
		if err != nil {
			t.Fatal(err)
		}
		// The smallest journal — one lane of two one-block halves of 63
		// entries — frees three blocks a chunk.
		fs, err := Mkfs(dev, Options{MaxInodes: 64, JournalBlocks: 2})
		if err != nil {
			t.Fatal(err)
		}
		if fs.freeChunk() != 3 {
			t.Fatalf("freeChunk = %d at the smallest journal, want 3", fs.freeChunk())
		}
		f, _ := fs.Create("/f")
		if _, err := f.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		if unlink {
			f.Close()
		}
		history := dev.Record()
		if unlink {
			err = fs.Unlink("/f")
		} else {
			err = f.Truncate(newSize)
		}
		if err != nil {
			t.Fatal(err)
		}
		if errs := fs.Check(); len(errs) != 0 {
			t.Fatalf("check after the live operation: %v", errs)
		}
		sizes := map[int64]bool{}
		history.Walk(func(state *nvmm.CrashState) {
			ev := state.Event()
			for _, seed := range []uint64{0, 0x9E3779B97F4A7C15} {
				dev, err := state.Materialize(seed)
				if err != nil {
					t.Fatal(err)
				}
				fs, _, err := MountRecover(dev)
				if err != nil {
					t.Fatalf("unlink=%v event %d seed %#x: recovery: %v", unlink, ev, seed, err)
				}
				if errs := fs.Check(); len(errs) != 0 {
					t.Fatalf("unlink=%v event %d seed %#x: check: %v", unlink, ev, seed, errs)
				}
				if _, err := fs.Stat("/f"); err != nil {
					if !unlink {
						t.Fatalf("event %d seed %#x: truncated file is gone", ev, seed)
					}
					continue
				}
				got := readAll(t, fs, "/f")
				size := int64(len(got))
				sizes[size] = true
				switch {
				case unlink && (size != blocks*BlockSize || !bytes.Equal(got, want)):
					t.Fatalf("event %d seed %#x: unlinked file recovered at %d bytes: neither whole nor gone", ev, seed, size)
				case size < newSize || size > blocks*BlockSize || (size != newSize && size%BlockSize != 0):
					t.Fatalf("event %d seed %#x: recovered size %d is no chunk boundary of a truncate from %d to %d", ev, seed, size, blocks*BlockSize, newSize)
				}
				if !unlink && !bytes.Equal(got, want[:size]) {
					t.Fatalf("event %d seed %#x: the recovered %d bytes differ from the file's", ev, seed, size)
				}
			}
		})
		if !unlink && len(sizes) < blocks/4 {
			t.Fatalf("truncate crash images showed only sizes %v: the chunk transactions were not explored", sizes)
		}
	}
}

// TestDirectPointerCrashImages crashes at every persist event of a sequence
// that moves files across the direct-pointer boundary: a small file written
// through its direct words and then promoted to a tree by an append, a sparse
// write leaving direct holes and a second one promoting them, a full direct
// file truncated to half, then
// truncates to zero and unlinks. Every image must recover to a consistent
// file system in which each file is as it was before or after the operation
// in flight.
func TestDirectPointerCrashImages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type step struct {
		path  string
		do    func(fs *FS) error
		model func(m map[string][]byte)
	}
	create := func(p string) step {
		return step{p, func(fs *FS) error {
			f, err := fs.Create(p)
			if err == nil {
				f.Close()
			}
			return err
		}, func(m map[string][]byte) { m[p] = []byte{} }}
	}
	write := func(p string, off int64, n int) step {
		data := payload(rng, n)
		return step{p, func(fs *FS) error {
			f, err := fs.Open(p, vfs.ORdwr)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteAt(data, off)
			return err
		}, func(m map[string][]byte) {
			if end := off + int64(n); end > int64(len(m[p])) {
				m[p] = append(m[p], make([]byte, end-int64(len(m[p])))...)
			}
			copy(m[p][off:], data)
		}}
	}
	truncate := func(p string, size int64) step {
		return step{p, func(fs *FS) error {
			f, err := fs.Open(p, vfs.ORdwr)
			if err != nil {
				return err
			}
			defer f.Close()
			return f.Truncate(size)
		}, func(m map[string][]byte) {
			m[p] = append(m[p][:min(size, int64(len(m[p])))], make([]byte, max(0, size-int64(len(m[p]))))...)
		}}
	}
	unlink := func(p string) step {
		return step{p, func(fs *FS) error { return fs.Unlink(p) }, func(m map[string][]byte) { delete(m, p) }}
	}
	steps := []step{
		create("/a"),
		write("/a", 0, 3*BlockSize),             // three direct blocks
		write("/a", 3*BlockSize, BlockSize+300), // fills the fourth, promotes with the fifth
		create("/b"),
		write("/b", 2*BlockSize+10, 100), // blocks 0 and 1 stay direct holes
		write("/b", 9*BlockSize, 50),     // promotes with holes; the new slot is in another line
		create("/c"),
		write("/c", 0, 4*BlockSize), // every direct word
		truncate("/a", 2*BlockSize), // stays a tree
		truncate("/b", 2*BlockSize),
		truncate("/c", 2*BlockSize),
		truncate("/a", 0), // the tree empties: back to height 0
		truncate("/b", 0),
		truncate("/c", 0),
		unlink("/a"),
		unlink("/b"),
		unlink("/c"),
	}
	// states[k] is the model after the first k steps.
	states := []map[string][]byte{{}}
	for _, s := range steps {
		m := make(map[string][]byte)
		for p, data := range states[len(states)-1] {
			m[p] = bytes.Clone(data)
		}
		s.model(m)
		states = append(states, m)
	}
	dev, err := nvmm.New(nvmm.Config{Size: 1 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{MaxInodes: 64, JournalBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Step k's persist-event window is (ends[k], ends[k+1]].
	ends := []int64{dev.PersistEvents()}
	history := dev.Record()
	for k, s := range steps {
		if err := s.do(fs); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		ends = append(ends, dev.PersistEvents())
		for p, want := range states[k+1] {
			if got := readAll(t, fs, p); !bytes.Equal(got, want) {
				t.Fatalf("step %d: live %s differs from the model", k, p)
			}
		}
	}
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("check after the live run: %v", errs)
	}
	k := 0
	history.Walk(func(state *nvmm.CrashState) {
		ev := state.Event()
		for ev > ends[k+1] {
			k++
		}
		before, after := states[k], states[k+1]
		for _, seed := range []uint64{0, 0x9E3779B97F4A7C15, 7} {
			dev, err := state.Materialize(seed)
			if err != nil {
				t.Fatal(err)
			}
			fs, _, err := MountRecover(dev)
			if err != nil {
				t.Fatalf("step %d event %d seed %#x: recovery: %v", k, ev, seed, err)
			}
			if errs := fs.Check(); len(errs) != 0 {
				t.Fatalf("step %d event %d seed %#x: check: %v", k, ev, seed, errs)
			}
			for _, p := range []string{"/a", "/b", "/c"} {
				var got []byte
				if _, err := fs.Stat(p); err == nil {
					got = readAll(t, fs, p)
				}
				matches := func(m map[string][]byte) bool {
					want, ok := m[p]
					return ok == (got != nil) && bytes.Equal(got, want)
				}
				if !matches(before) && !matches(after) {
					t.Fatalf("step %d (%s) event %d seed %#x: %s recovered at %d bytes, neither before nor after the step",
						k, steps[k].path, ev, seed, p, len(got))
				}
			}
		}
	})
}
