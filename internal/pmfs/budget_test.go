package pmfs

import (
	"testing"

	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
)

// cost is what one operation spent on durability: device persists (flushes
// and non-temporal stores), bytes flushed, fences, and journal entries and
// commit records. On a zero-latency device these are exact and repeat, so
// they are asserted the way AllocsPerRun == 0 is.
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

// within reports whether c stays at or under ceil in every column.
func (c cost) within(ceil cost) bool {
	return c.persists <= ceil.persists && c.bytes <= ceil.bytes && c.fences <= ceil.fences &&
		c.entries <= ceil.entries && c.commits <= ceil.commits
}

// budgetFile returns a handle on a fresh 8-block file of 0x11 bytes.
func budgetFile(t *testing.T, fs *FS, path string, flags int) *File {
	t.Helper()
	v, err := fs.Open(path, vfs.OCreate|vfs.ORdwr|flags)
	if err != nil {
		t.Fatal(err)
	}
	f := v.(*File)
	t.Cleanup(func() { f.Close() })
	fill := make([]byte, 8*BlockSize)
	for i := range fill {
		fill[i] = 0x11
	}
	if _, err := f.WriteAt(fill, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPersistBudget holds the direct (PMFS) route to a persist budget per op
// class. An overwrite that changes no size is exact: its data, one 64-byte
// line for Mtime, one fence, nothing journaled. Every write that changes the
// size or the tree must still log a transaction. The remaining classes pin
// today's counts as ceilings for the rest of ROADMAP item 2(b) to lower.
func TestPersistBudget(t *testing.T) {
	fs, dev := testFS(t)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	f := budgetFile(t, fs, "/d/f", 0)
	data := make([]byte, 4*BlockSize)
	write := func(f *File, n int, off int64) func() {
		return func() {
			t.Helper()
			if _, err := f.WriteAt(data[:n], off); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("overwrite", func(t *testing.T) {
		for _, c := range []struct {
			name string
			op   func()
			want cost
		}{
			// One WriteNT of 64 lines, the Mtime line, the data's fence.
			{"aligned 4 KiB", write(f, BlockSize, 2*BlockSize), cost{2, BlockSize + 64, 1, 0, 0}},
			// Bytes [100, 4196): lines 1-63 of one block, lines 0-1 of the next.
			{"unaligned, two blocks", write(f, BlockSize, 100), cost{3, 63*64 + 2*64 + 64, 1, 0, 0}},
			{"sub-cacheline", write(f, 10, 5*BlockSize+70), cost{2, 64 + 64, 1, 0, 0}},
			{"up to EOF", write(f, BlockSize, 7*BlockSize), cost{2, BlockSize + 64, 1, 0, 0}},
		} {
			if got := measure(fs, dev, c.op); got != c.want {
				t.Errorf("%s: %+v, want exactly %+v", c.name, got, c.want)
			}
		}
		got := measure(fs, dev, func() {
			if _, err := f.MmapBlock(3); err != nil {
				t.Fatal(err)
			}
		})
		if want := (cost{1, 64, 0, 0, 0}); got != want {
			t.Errorf("MmapBlock of an existing block: %+v, want exactly %+v", got, want)
		}
	})

	t.Run("still journaled", func(t *testing.T) {
		holey := budgetFile(t, fs, "/d/holey", 0)
		if err := holey.Truncate(64 * BlockSize); err != nil { // blocks 8-63 are holes below EOF
			t.Fatal(err)
		}
		app := budgetFile(t, fs, "/d/app", vfs.OAppend)
		v, err := fs.Create("/d/fresh")
		if err != nil {
			t.Fatal(err)
		}
		fresh := v.(*File)
		defer fresh.Close()
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"straddling EOF", write(f, BlockSize, 8*BlockSize-100)},
			{"into a hole below EOF", write(holey, BlockSize, 20*BlockSize)},
			{"O_APPEND", write(app, 100, 0)},
			{"first write of a file", write(fresh, 100, 0)},
			{"MmapBlock of a missing block", func() {
				if _, err := holey.MmapBlock(40); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			if got := measure(fs, dev, c.op); got.entries < 1 || got.commits != 1 {
				t.Errorf("%s: %+v, want a transaction (entries >= 1, one commit)", c.name, got)
			}
		}
	})

	t.Run("ceilings", func(t *testing.T) {
		g := budgetFile(t, fs, "/d/g", 0)
		if _, err := g.WriteAt(data[:100], 8*BlockSize); err != nil { // EOF now sits mid-block
			t.Fatal(err)
		}
		v, err := fs.Create("/d/small")
		if err != nil {
			t.Fatal(err)
		}
		small := v.(*File)
		defer small.Close()
		if v, err = fs.Create("/d/small1k"); err != nil {
			t.Fatal(err)
		}
		small1k := v.(*File)
		defer small1k.Close()
		if v, err = fs.Create("/d/four"); err != nil {
			t.Fatal(err)
		}
		write(v.(*File), 4*BlockSize, 0)()
		v.Close()
		for _, c := range []struct {
			name string
			op   func()
			ceil cost
		}{
			{"append inside a block", write(g, 100, 8*BlockSize+100), cost{4, 384, 4, 2, 1}},
			// Starting past EOF, it zeroes the gap it exposes in block 8 —
			// [200, 4096), 61 lines — which no earlier write paid for: a
			// fresh block's tail past EOF is left as it is at allocation.
			{"append allocating a block", write(g, BlockSize, 9*BlockSize), cost{9, 4096 + 61*64 + 448, 8, 4, 1}},
			// 16 data lines and 5 metadata lines: the block's 48 lines past
			// EOF are not stored.
			{"first write of a 1 KiB file", write(small1k, 1024, 0), cost{6, 1024 + 320, 6, 3, 1}},
			// A file of up to four blocks keeps its pointers in the inode:
			// 16 KiB of data and 6 metadata lines, no 4 KiB index block.
			{"first write of a 4-block file", write(small, 4*BlockSize, 0), cost{10, 4*BlockSize + 384, 7, 4, 1}},
			// The fifth block promotes it: its data, the index block (paid
			// once, here) and 10 metadata lines.
			{"append promoting 4 to 5 blocks", write(small, BlockSize, 4*BlockSize), cost{12, 2*BlockSize + 640, 11, 6, 1}},
			{"unlink of a 4-block file", func() {
				if err := fs.Unlink("/d/four"); err != nil {
					t.Fatal(err)
				}
			}, cost{9, 576, 9, 6, 2}},
			{"create", func() {
				h, err := fs.Create("/d/new")
				if err != nil {
					t.Fatal(err)
				}
				h.Close()
			}, cost{8, 512, 8, 5, 1}},
			{"rename", func() {
				if err := fs.Rename("/d/new", "/d/newer"); err != nil {
					t.Fatal(err)
				}
			}, cost{8, 512, 8, 5, 1}},
			{"unlink", func() {
				if err := fs.Unlink("/d/newer"); err != nil { // the dentry's transaction, then the inode's
					t.Fatal(err)
				}
			}, cost{6, 384, 6, 4, 2}},
			{"fsync", func() {
				if err := g.Fsync(); err != nil {
					t.Fatal(err)
				}
			}, cost{0, 0, 1, 0, 0}},
		} {
			if got := measure(fs, dev, c.op); !got.within(c.ceil) {
				t.Errorf("%s: %+v, over its ceiling %+v", c.name, got, c.ceil)
			}
		}
	})
}
