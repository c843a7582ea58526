package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"hinfs/internal/buffer"
	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

// poison is what every data byte of a poisonedDev holds before Mkfs: no
// test payload has the high bit set, so a poison byte read back from a file
// is a byte the file never owned.
const poison = 0xEE

// poisonedDev returns a device whose every byte is poison and durable, so
// that every block the allocator ever hands out — fresh or reused — carries
// "a previous owner's" bytes.
func poisonedDev(t testing.TB, size int64, track bool) *nvmm.Device {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: size, TrackPersistence: track})
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{poison}, BlockSize)
	for off := int64(0); off < size; off += BlockSize {
		dev.Write(blk, off)
	}
	dev.Flush(0, int(size))
	dev.Fence()
	return dev
}

func firstPoison(b []byte) int {
	for i, c := range b {
		if c&0x80 != 0 {
			return i
		}
	}
	return -1
}

// TestPoisonedDeviceMatchesModel drives random (off, n) writes into fresh
// and reused blocks on every write route — lazy, O_SYNC, sync mount and the
// buffer-everything ablation — interleaved with fsync, unlink, truncate
// down and truncate up, and compares each file with a zero-filled in-memory
// model, live and again after Unmount + Mount. Any byte pmfs or the buffer
// failed to zero (or zeroed but should not have) shows as a mismatch.
func TestPoisonedDeviceMatchesModel(t *testing.T) {
	routes := []struct {
		name  string
		opts  Options
		flags int
	}{
		{"lazy", Options{}, 0},
		{"osync", Options{}, vfs.OSync},
		{"syncmount", Options{SyncMount: true}, 0},
		{"wb", Options{DisableEagerChecker: true}, 0},
	}
	for _, rt := range routes {
		rt := rt
		t.Run(rt.name, func(t *testing.T) {
			dev := poisonedDev(t, 32<<20, false)
			opts := rt.opts
			opts.BufferBlocks = 64 // small enough that eviction runs too
			opts.PMFS.MaxInodes = 256
			fs, err := Mkfs(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(rt.name)) * 7919))
			const files = 6
			model := make([][]byte, files)
			open := make([]vfs.File, files)
			path := func(i int) string { return fmt.Sprintf("/p%d", i) }
			check := func(fs vfs.FileSystem, when string) {
				t.Helper()
				for i := range model {
					f, err := fs.Open(path(i), vfs.ORdonly)
					if model[i] == nil {
						if err == nil {
							t.Fatalf("%s: %s exists, model says unlinked", when, path(i))
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: open %s: %v", when, path(i), err)
					}
					got := make([]byte, len(model[i])+BlockSize)
					n, err := f.ReadAt(got, 0)
					if err != nil && err != io.EOF {
						t.Fatalf("%s: read %s: %v", when, path(i), err)
					}
					f.Close()
					if n != len(model[i]) || !bytes.Equal(got[:n], model[i]) {
						at := 0
						for at < n && at < len(model[i]) && got[at] == model[i][at] {
							at++
						}
						t.Fatalf("%s: %s: size %d (model %d), first difference at byte %d (first poison byte at %d)",
							when, path(i), n, len(model[i]), at, firstPoison(got[:n]))
					}
				}
			}
			for op := 0; op < 600; op++ {
				i := rng.Intn(files)
				if open[i] == nil {
					f, err := fs.Open(path(i), vfs.OCreate|vfs.ORdwr|rt.flags)
					if err != nil {
						t.Fatal(err)
					}
					open[i], model[i] = f, []byte{}
				}
				f := open[i]
				switch k := rng.Intn(20); {
				case k < 12: // write: anywhere up to two blocks past EOF, any length up to 3 blocks
					off := rng.Intn(len(model[i]) + 2*BlockSize)
					n := 1 + rng.Intn(3*BlockSize)
					if rng.Intn(3) == 0 {
						n = 1 + rng.Intn(63)
					}
					data := make([]byte, n)
					for j := range data {
						data[j] = byte(rng.Intn(0x7f)) + 1
					}
					if _, err := f.WriteAt(data, int64(off)); err != nil {
						t.Fatal(err)
					}
					if end := off + n; end > len(model[i]) {
						model[i] = append(model[i], make([]byte, end-len(model[i]))...)
					}
					copy(model[i][off:], data)
				case k < 14:
					if err := f.Fsync(); err != nil {
						t.Fatal(err)
					}
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
				case k < 19: // unlink: its blocks go back to the allocator, poisoned by payload or not
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
			base, err := pmfs.Mount(dev)
			if err != nil {
				t.Fatal(err)
			}
			if errs := base.Check(); len(errs) != 0 {
				t.Fatalf("check after remount: %v", errs)
			}
			check(base, "after remount")
		})
	}
}

// TestDropWindowShowsZeroesNeverStaleBytes crashes at every persist event of
// a truncate that drops never-written-back fresh blocks. Dropping releases
// the transaction that allocated them, which commits before the truncate's
// own does, so some crash images show the file at its old size: the dropped
// blocks must then read as zeroes (the buffer zeroed their dirty lines on
// NVMM first), never as the poison the blocks held before.
func TestDropWindowShowsZeroesNeverStaleBytes(t *testing.T) {
	opts := Options{
		BufferBlocks: 64,
		Clock:        clock.NewFake(time.Unix(0, 0)),
		Buffer:       buffer.Config{Shards: 1, WritebackThreads: -1},
		PMFS:         pmfs.Options{JournalBlocks: 64, MaxInodes: 64},
	}
	payload := bytes.Repeat([]byte{0x5A}, 2*BlockSize+100)
	dev := poisonedDev(t, 8<<20, true)
	fs, err := Mkfs(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Abandon()
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	// A synced first block: everything chained before the lazy write on
	// this inode has committed, so nothing but the buffer holds it back.
	// (sync(2), not fsync: an fsync would make the benefit model route
	// the next write eager, and an eager write leaves nothing to drop.)
	if _, err := f.WriteAt(payload[:BlockSize], 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// A lazy write of fresh blocks 1-3, starting and ending mid-line.
	if _, err := f.WriteAt(payload, BlockSize+30); err != nil {
		t.Fatal(err)
	}
	if fs.Pool().DirtyBlocks() != 3 {
		t.Fatalf("the write of blocks 1-3 left %d dirty buffer blocks: not lazy", fs.Pool().DirtyBlocks())
	}
	from := dev.PersistEvents()
	history := dev.Record()
	if err := f.Truncate(BlockSize); err != nil {
		t.Fatal(err)
	}
	if to := dev.PersistEvents(); to-from < 4 {
		t.Fatalf("truncate spans only %d persist events", to-from)
	}
	sawOldSize := false
	history.Walk(func(state *nvmm.CrashState) {
		ev := state.Event()
		for _, seed := range []uint64{0, 0x9E3779B97F4A7C15, 0xD6E8FEB86659FD93} {
			dev, err := state.Materialize(seed)
			if err != nil {
				t.Fatal(err)
			}
			base, _, err := pmfs.MountRecover(dev)
			if err != nil {
				t.Fatalf("event %d seed %#x: recovery: %v", ev, seed, err)
			}
			g, err := base.Open("/f", vfs.ORdonly)
			if err != nil {
				t.Fatalf("event %d seed %#x: %v", ev, seed, err)
			}
			got := make([]byte, 4*BlockSize)
			n, _ := g.ReadAt(got, 0)
			if n > BlockSize {
				sawOldSize = true
			}
			if at := firstPoison(got[:n]); at >= 0 {
				t.Fatalf("event %d seed %#x: recovered file of %d bytes shows byte %#x at %d: a previous owner's data",
					ev, seed, n, got[at], at)
			}
		}
	})
	if !sawOldSize {
		t.Fatal("no crash image showed the file before the truncate: the drop window was not explored")
	}
}
