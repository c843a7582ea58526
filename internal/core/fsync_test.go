package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hinfs/internal/buffer"
	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
)

// fsyncScalingFile mounts HiNFS-WB (every write is buffered, so the file's
// blocks stay in DRAM across syncs) on a zero-latency device and returns a
// file with `blocks` buffered, clean blocks. The pool leaves a quarter free
// so background reclamation never runs. The file is never unlinked: freeing
// more than one journal lane's worth of blocks in one transaction hangs
// (ROADMAP item 4e).
func fsyncScalingFile(tb testing.TB, blocks int) (*File, []byte) {
	tb.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: int64(blocks)*BlockSize + 64<<20})
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{
		BufferBlocks:        blocks + blocks/4 + 64,
		DisableEagerChecker: true,
		PMFS:                pmfs.Options{MaxInodes: 64},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fs.Unmount() })
	v, err := fs.Create("/f")
	if err != nil {
		tb.Fatal(err)
	}
	f := v.(*File)
	blk := bytes.Repeat([]byte{0x5a}, BlockSize)
	for i := 0; i < blocks; i++ {
		if _, err := f.WriteAt(blk, int64(i)*BlockSize); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.Fsync(); err != nil {
		tb.Fatal(err)
	}
	if got := len(f.fb.BlockIndices()); got != blocks {
		tb.Fatalf("%d blocks buffered, want %d", got, blocks)
	}
	return f, blk
}

// BenchmarkFsyncScaling is fsync cost against how much of the file is
// buffered and how much of that is dirty: it must follow the second and
// ignore the first.
func BenchmarkFsyncScaling(b *testing.B) {
	for _, blocks := range []int{64, 1024, 16384} {
		for _, dirty := range []string{"0", "1", "all"} {
			b.Run(fmt.Sprintf("buffered=%d/dirty=%s", blocks, dirty), func(b *testing.B) {
				f, blk := fsyncScalingFile(b, blocks)
				n := map[string]int{"0": 0, "1": 1, "all": blocks}[dirty]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < n; k++ {
						idx := (i + k) % blocks
						if _, err := f.WriteAt(blk, int64(idx)*BlockSize); err != nil {
							b.Fatal(err)
						}
					}
					if err := f.Fsync(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestFsyncCostIgnoresCleanBlocks is the scaling gate: an fsync with
// nothing to flush costs the same on a file with 16384 buffered blocks as
// on one with 64. The full-walk fsync measured ≈ 256 × here; the bound of
// 4 × leaves room for a loaded runner.
func TestFsyncCostIgnoresCleanBlocks(t *testing.T) {
	cleanFsync := func(blocks int) time.Duration {
		f, _ := fsyncScalingFile(t, blocks)
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			const n = 2000
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := f.Fsync(); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(t0) / n; d < best {
				best = d
			}
		}
		return best
	}
	small, large := cleanFsync(64), cleanFsync(16384)
	t.Logf("clean fsync: %v at 64 buffered blocks, %v at 16384", small, large)
	// The microsecond of slack keeps scheduler noise on a ~250 ns
	// measurement from tripping the gate; the walk it guards against cost
	// milliseconds.
	if large > 4*small+time.Microsecond {
		t.Fatalf("clean fsync costs %v at 16384 buffered blocks vs %v at 64 (> 4x)", large, small)
	}
}

// TestFsyncAllocatesNothing: the whole fsync — buffer flush, fence, model,
// sync clock — stays off the heap, both with nothing dirty and when it
// flushes the block a write just dirtied (the write's own allocations are
// measured apart and subtracted).
func TestFsyncAllocatesNothing(t *testing.T) {
	f, blk := fsyncScalingFile(t, 64)
	fsync := func() {
		if err := f.Fsync(); err != nil {
			t.Fatal(err)
		}
	}
	write := func() {
		if _, err := f.WriteAt(blk[:512], 3*BlockSize+128); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, fsync); n != 0 {
		t.Fatalf("clean fsync allocates %v times", n)
	}
	w := testing.AllocsPerRun(200, write)
	if wf := testing.AllocsPerRun(200, func() { write(); fsync() }); wf != w {
		t.Fatalf("write + fsync allocates %v times, the write alone %v", wf, w)
	}
}

// persistLog is one run's persist-event stream: the kind of every persist
// event, and the device's flushed-byte count when it was issued, so
// consecutive entries differ by the bytes the previous event flushed.
type persistLog struct {
	kinds   []nvmm.EventKind
	flushed []int64
}

// runPersistLog plays a fixed single-client op sequence (seeded) against a
// fresh multi-shard mount with no background writeback and a fake clock,
// and returns its persist-event stream.
func runPersistLog(t *testing.T, seed int64) *persistLog {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 64 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	log := &persistLog{}
	dev.SetCrashPlan(func(_ int64, kind nvmm.EventKind) {
		log.kinds = append(log.kinds, kind)
		log.flushed = append(log.flushed, dev.Stats().BytesFlushed)
	})
	fs, err := Mkfs(dev, Options{
		BufferBlocks:        512,
		DisableEagerChecker: true,
		Clock:               clock.NewFake(time.Unix(1e9, 0)),
		PMFS:                pmfs.Options{MaxInodes: 64},
		Buffer:              buffer.Config{Shards: 4, WritebackThreads: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const nFiles, nBlocks = 3, 96
	files := make([]*File, nFiles)
	for i := range files {
		v, err := fs.Create(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = v.(*File)
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 2*BlockSize)
	for op := 0; op < 1500; op++ {
		f := files[rng.Intn(nFiles)]
		if rng.Intn(12) == 0 {
			if err := f.Fsync(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		off := rng.Int63n(nBlocks*BlockSize) &^ 63
		n := 64 + rng.Intn(len(buf)-64)
		rng.Read(buf[:n])
		if _, err := f.WriteAt(buf[:n], off); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestPersistStreamDeterministic: the persist-event stream a crash
// explorer repro re-runs is a pure function of the op sequence — two runs of one
// sequence on four buffer shards issue the same events, each flushing the
// same number of bytes. (TestFlushCommitsGatedTxsInBlockOrder in the
// buffer package pins the fsync write-back order that makes it so.)
func TestPersistStreamDeterministic(t *testing.T) {
	log1, log2 := runPersistLog(t, 42), runPersistLog(t, 42)
	if len(log1.kinds) == 0 || log1.flushed[len(log1.flushed)-1] == 0 {
		t.Fatal("empty persist log")
	}
	if !slices.Equal(log1.kinds, log2.kinds) {
		t.Fatalf("persist-event kinds differ between runs (%d vs %d events)", len(log1.kinds), len(log2.kinds))
	}
	if !slices.Equal(log1.flushed, log2.flushed) {
		t.Fatalf("flushed bytes per event differ between runs (%d vs %d events)", len(log1.flushed), len(log2.flushed))
	}
}
