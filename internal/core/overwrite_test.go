package core

import (
	"bytes"
	"testing"
	"time"

	"hinfs/internal/buffer"
	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

// cost is what one operation spent on durability (see pmfs's persist-budget
// test): persists, bytes flushed, fences, journal entries, commit records.
type cost struct {
	persists, bytes, fences, entries, commits int64
}

func measure(fs *FS, dev *nvmm.Device, op func()) cost {
	d0, j0 := dev.Stats(), fs.Journal().Stats()
	op()
	d1, j1 := dev.Stats(), fs.Journal().Stats()
	return cost{
		persists: d1.Flushes - d0.Flushes,
		bytes:    d1.BytesFlushed - d0.BytesFlushed,
		fences:   d1.Fences - d0.Fences,
		entries:  j1.EntriesLogged - j0.EntriesLogged,
		commits:  j1.Commits - j0.Commits,
	}
}

// quietOpts is a mount whose persist stream is a function of the op stream
// alone: one shard, no background write-back, a clock that stands still.
func quietOpts() Options {
	return Options{
		BufferBlocks: 64,
		Clock:        clock.NewFake(time.Unix(1000, 0)),
		Buffer:       buffer.Config{Shards: 1, WritebackThreads: -1},
		PMFS:         pmfs.Options{JournalBlocks: 64, MaxInodes: 64},
	}
}

// overwriteFile creates path on fs as 8 durable blocks of fill, written
// through the handle it returns, and leaves the file's routing undecided: a
// lazy handle's blocks are written back by sync(2), not fsync, which would
// teach the benefit model to route the file's next writes eager; an O_SYNC
// handle's never enter the buffer.
func overwriteFile(t *testing.T, fs *FS, path string, fill byte, flags int) *File {
	t.Helper()
	v, err := fs.Open(path, vfs.OCreate|vfs.ORdwr|flags)
	if err != nil {
		t.Fatal(err)
	}
	f := v.(*File)
	t.Cleanup(func() { f.Close() })
	if _, err := f.WriteAt(bytes.Repeat([]byte{fill}, 8*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOverwritePersistBudget holds both HiNFS routes to the budget of a write
// that changes no size. Eager (O_SYNC): the data's non-temporal store, the
// Mtime line, one fence, nothing journaled — what the PMFS route pays. Lazy:
// the Mtime line and nothing else until fsync, which flushes exactly the
// lines the write dirtied. A write that grows the file still journals.
func TestOverwritePersistBudget(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	data := make([]byte, 2*BlockSize)
	write := func(f *File, n int, off int64) func() {
		return func() {
			t.Helper()
			if _, err := f.WriteAt(data[:n], off); err != nil {
				t.Fatal(err)
			}
		}
	}
	fsync := func(f *File) func() {
		return func() {
			t.Helper()
			if err := f.Fsync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A file's first fsync decides its blocks' routes, so each lazy case
	// has a file of its own.
	eager := overwriteFile(t, fs, "/eager", 0x11, vfs.OSync)
	whole := overwriteFile(t, fs, "/whole", 0x11, 0)
	part := overwriteFile(t, fs, "/part", 0x11, 0)
	grown := overwriteFile(t, fs, "/grown", 0x11, 0)
	for _, c := range []struct {
		name string
		op   func()
		want cost
	}{
		{"O_SYNC aligned 4 KiB", write(eager, BlockSize, 2*BlockSize), cost{2, BlockSize + 64, 1, 0, 0}},
		{"O_SYNC unaligned, two blocks", write(eager, BlockSize, 100), cost{3, 63*64 + 2*64 + 64, 1, 0, 0}},
		{"lazy aligned 4 KiB", write(whole, BlockSize, 2*BlockSize), cost{1, 64, 0, 0, 0}},
		{"its fsync", fsync(whole), cost{1, BlockSize, 2, 0, 0}},
		{"a clean fsync", fsync(whole), cost{0, 0, 1, 0, 0}},
		// Bytes [100, 300) dirty lines 1-4 of the block.
		{"lazy sub-block", write(part, 200, 100), cost{1, 64, 0, 0, 0}},
		{"its fsync", fsync(part), cost{1, 4 * 64, 2, 0, 0}},
	} {
		if got := measure(fs, dev, c.op); got != c.want {
			t.Errorf("%s: %+v, want exactly %+v", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"lazy write straddling EOF", write(grown, BlockSize, 8*BlockSize-100)},
		{"O_SYNC write past EOF", write(eager, 100, 8*BlockSize)},
	} {
		if got := measure(fs, dev, c.op); got.entries < 1 {
			t.Errorf("%s: %+v, want a logged transaction", c.name, got)
		}
	}
	if got := measure(fs, dev, fsync(grown)); got.commits != 1 {
		t.Errorf("fsync after a lazy write that grew the file: %+v, want its one deferred commit", got)
	}
}

// TestOverwriteAllocatesNothing: a 4-block overwrite that lands in the DRAM
// buffer allocates nothing — no journal.Tx, nothing gated on its blocks.
func TestOverwriteAllocatesNothing(t *testing.T) {
	fs, _ := testFS(t, quietOpts())
	f := overwriteFile(t, fs, "/f", 0x11, 0)
	buf := make([]byte, 4*BlockSize)
	write := func() {
		if _, err := f.WriteAt(buf, BlockSize+100); err != nil {
			t.Fatal(err)
		}
	}
	write() // takes the buffer blocks
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Errorf("4-block lazy overwrite: %.0f allocs, want 0", n)
	}
	if fs.Pool().DirtyBlocks() != 5 {
		t.Fatalf("%d dirty buffer blocks, want 5: the overwrite was not lazy", fs.Pool().DirtyBlocks())
	}
}

// tornSeeds select which pending cachelines a crash image keeps: none, then
// seven pseudo-random halves.
var tornSeeds = []uint64{0, 0x9E3779B97F4A7C15, 0xD6E8FEB86659FD93, 0xBF58476D1CE4E5B9,
	0x94D049BB133111EB, 0x2545F4914F6CDD1D, 0x1, 0xFFFFFFFFFFFFFFFF}

// TestOverwriteCrashImages crashes at every persist event of an overwrite and
// of the fsync after it, and once more after they have returned, on three
// schedules: an O_SYNC overwrite; a lazy overwrite and its fsync; and a lazy
// overwrite behind a lazy append of the same file, so the in-place Mtime store
// lands on an inode line whose undo image an open transaction still holds.
// Every image must mount and check clean; the file is its old size or (third
// schedule) the appended one; every byte is one the file owned at that
// offset, old or new; and once the write (O_SYNC) or the fsync has returned,
// the overwritten bytes are new.
func TestOverwriteCrashImages(t *testing.T) {
	const (
		old, new, tail = 0x11, 0x22, 0x33
		off, n         = 2*BlockSize + 100, BlockSize + 200
		size           = 8 * BlockSize
	)
	for _, sc := range []struct {
		name   string
		flags  int
		append bool
	}{
		{"O_SYNC", vfs.OSync, false},
		{"lazy then fsync", 0, false},
		{"lazy behind an open append", 0, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			dev, err := nvmm.New(nvmm.Config{Size: 8 << 20, TrackPersistence: true})
			if err != nil {
				t.Fatal(err)
			}
			fs, err := Mkfs(dev, quietOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Abandon()
			f := overwriteFile(t, fs, "/f", old, sc.flags)
			if sc.append {
				if _, err := f.WriteAt(bytes.Repeat([]byte{tail}, BlockSize+300), size); err != nil {
					t.Fatal(err)
				}
			}
			history := dev.Record()
			if _, err := f.WriteAt(bytes.Repeat([]byte{new}, n), off); err != nil {
				t.Fatal(err)
			}
			if sc.flags&vfs.OSync == 0 {
				if fs.Pool().DirtyBlocks() == 0 {
					t.Fatal("the overwrite left nothing dirty in the buffer: not lazy")
				}
				if err := f.Fsync(); err != nil {
					t.Fatal(err)
				}
			}
			dev.Fence() // one more event: a crash just after the last call returned
			to := dev.PersistEvents()
			sawOld, sawAppended := false, false
			history.Walk(func(state *nvmm.CrashState) {
				ev := state.Event()
				for _, seed := range tornSeeds {
					dev, err := state.Materialize(seed)
					if err != nil {
						t.Fatal(err)
					}
					base, _, err := pmfs.MountRecover(dev)
					if err != nil {
						t.Fatalf("event %d seed %#x: recovery: %v", ev, seed, err)
					}
					if errs := base.Check(); len(errs) != 0 {
						t.Fatalf("event %d seed %#x: check: %v", ev, seed, errs)
					}
					g, err := base.Open("/f", vfs.ORdonly)
					if err != nil {
						t.Fatalf("event %d seed %#x: %v", ev, seed, err)
					}
					got := make([]byte, size+2*BlockSize)
					m, _ := g.ReadAt(got, 0)
					if m != size && !(sc.append && m == size+BlockSize+300) {
						t.Fatalf("event %d seed %#x: recovered size %d", ev, seed, m)
					}
					sawAppended = sawAppended || m > size
					durable := ev == to
					for i, b := range got[:m] {
						covered := i >= off && i < off+n
						switch {
						case i >= size && b == tail, b == new && covered:
						case b == old && i < size && !(covered && durable):
							sawOld = sawOld || covered
						default:
							t.Fatalf("event %d seed %#x: byte %d of %d is %#x (covered by the overwrite: %v, durable: %v)",
								ev, seed, i, m, b, covered, durable)
						}
					}
				}
			})
			if !sawOld {
				t.Fatal("no crash image showed the bytes before the overwrite: its window was not explored")
			}
			if sc.append && !sawAppended {
				t.Fatal("no crash image showed the appended file")
			}
		})
	}
}
