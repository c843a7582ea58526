// Benchmarks regenerating every measured artifact of the paper's
// evaluation (one benchmark per figure; Figs. 3-5 are diagrams), plus
// micro-benchmarks of the core data paths.
//
// The figure benchmarks drive the same harness as cmd/hinfs-bench in
// Quick mode with small op counts, so `go test -bench=.` reproduces each
// figure's shape in bounded time; run the CLI for full sweeps.
package hinfs

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"hinfs/internal/buffer"
	"hinfs/internal/cacheline"
	"hinfs/internal/clock"
	"hinfs/internal/core"
	"hinfs/internal/harness"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
	"hinfs/internal/workload"
)

// benchCfg is a scaled-down environment so every figure regenerates
// quickly under `go test -bench`.
func benchCfg() harness.Config {
	return harness.Config{DeviceSize: 192 << 20}
}

// benchFigure runs a figure generator b.N times and logs the table once.
func benchFigure(b *testing.B, name string,
	fn func(harness.Config, harness.Opts) (*harness.Figure, error), o harness.Opts) {
	b.Helper()
	o.Quick = true
	for i := 0; i < b.N; i++ {
		fig, err := fn(benchCfg(), o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%s:\n%s", name, fig.Table.String())
		}
	}
}

func BenchmarkFig1TimeBreakdown(b *testing.B) {
	benchFigure(b, "Figure 1", harness.Figure1, harness.Opts{Ops: 2000})
}

func BenchmarkFig2FsyncBytes(b *testing.B) {
	benchFigure(b, "Figure 2", harness.Figure2, harness.Opts{Ops: 150})
}

func BenchmarkFig6ModelAccuracy(b *testing.B) {
	benchFigure(b, "Figure 6", harness.Figure6, harness.Opts{Ops: 200})
}

func BenchmarkFig7OverallPerformance(b *testing.B) {
	benchFigure(b, "Figure 7", harness.Figure7, harness.Opts{Ops: 30, Threads: 2})
}

func BenchmarkFig8Scalability(b *testing.B) {
	benchFigure(b, "Figure 8", harness.Figure8, harness.Opts{Ops: 20})
}

func BenchmarkFig9IOSizeCLFW(b *testing.B) {
	benchFigure(b, "Figure 9", harness.Figure9, harness.Opts{Ops: 60})
}

func BenchmarkFig10BufferSize(b *testing.B) {
	benchFigure(b, "Figure 10", harness.Figure10, harness.Opts{Ops: 40})
}

func BenchmarkFig11WriteLatency(b *testing.B) {
	benchFigure(b, "Figure 11", harness.Figure11, harness.Opts{Ops: 30})
}

func BenchmarkFig12TraceReplay(b *testing.B) {
	benchFigure(b, "Figure 12", harness.Figure12, harness.Opts{Ops: 1500})
}

func BenchmarkFig13Macrobenchmarks(b *testing.B) {
	benchFigure(b, "Figure 13", harness.Figure13, harness.Opts{Ops: 60})
}

func BenchmarkPoolScalingReport(b *testing.B) {
	benchFigure(b, "Pool scaling", harness.PoolScaling, harness.Opts{Ops: 30000})
}

// BenchmarkPoolParallelWrite measures DRAM buffer lock scaling directly:
// 8 goroutines issuing 64 B write hits to disjoint files on a single-lock
// pool (Shards: 1) versus the default sharded pool. Write hits touch no
// device and trigger no eviction, so the delta is pure lock contention.
// GOMAXPROCS is raised to 8 for the duration so the goroutines run on
// distinct OS threads.
//
// The gap requires >= 2 physical cores: on a single-core host only one
// thread executes at a time, so the global mutex is almost never contended
// and the two configurations coincide. Compare the sub-benchmarks on a
// multicore machine (the intended CI shape) to see the sharding win.
func BenchmarkPoolParallelWrite(b *testing.B) {
	const workers = 8
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	for _, sc := range []struct {
		name    string
		shards  int
		observe bool
	}{
		{"single-lock", 1, false},
		{"sharded", 0, false},
		// Same pool with an obs.Collector attached: the write-hit path
		// carries no recording calls (only stalls and writeback do), so
		// the delta vs "sharded" bounds the observability overhead.
		{"sharded-observed", 0, true},
	} {
		b.Run(sc.name, func(b *testing.B) {
			dev := microDevice(b)
			var col *obs.Collector
			if sc.observe {
				col = obs.New()
			}
			pool := buffer.NewPool(dev, clock.Real{}, buffer.Config{
				Blocks: 8192, Shards: sc.shards, CLFW: true, Obs: col})
			defer pool.Close()
			const blocksPer = 64
			addr := func(g int, blk int64) int64 {
				return (int64(g)*blocksPer + blk) * buffer.BlockSize
			}
			fbs := make([]*buffer.FileBuf, workers)
			line := make([]byte, cacheline.Size)
			for g := range fbs {
				fbs[g] = pool.NewFile()
				for blk := int64(0); blk < blocksPer; blk++ {
					fbs[g].Write(blk, 0, line, addr(g, blk), false)
				}
			}
			var next atomic.Int32
			b.SetBytes(cacheline.Size)
			b.SetParallelism(1) // workers = GOMAXPROCS = 8
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := int(next.Add(1)-1) % workers
				fb := fbs[g]
				buf := make([]byte, cacheline.Size)
				i := 0
				for pb.Next() {
					blk := int64(i % blocksPer)
					off := (i % cacheline.PerBlock) * cacheline.Size
					fb.Write(blk, off, buf, addr(g, blk), true)
					i++
				}
			})
		})
	}
}

// BenchmarkMetadataParallel measures metadata hot-path lock scaling
// directly: 8 goroutines running a create/write/fsync/unlink loop in
// private directories on bare PMFS, with the serial metadata path (one
// namespace lock, one journal lane, one allocator shard) versus the
// sharded one. The device is zero-latency, so the delta is pure software:
// lock contention in the namespace, journal slot allocation and the block
// allocator.
//
// As with BenchmarkPoolParallelWrite, the gap requires >= 2 physical
// cores; on a single-core host the configurations coincide. The
// `hinfs-bench -fig metascale` report reproduces the gap on any core
// count by scaling device latency instead.
func BenchmarkMetadataParallel(b *testing.B) {
	const workers = 8
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	for _, sc := range []struct {
		name string
		opts pmfs.Options
	}{
		{"serial", pmfs.Options{MaxInodes: 2048, SerialNamespace: true, JournalLanes: 1, AllocShards: 1}},
		{"sharded", pmfs.Options{MaxInodes: 2048}},
	} {
		b.Run(sc.name, func(b *testing.B) {
			dev := microDevice(b)
			fs, err := pmfs.Mkfs(dev, sc.opts)
			if err != nil {
				b.Fatal(err)
			}
			logs := make([]vfs.File, workers)
			line := make([]byte, 64)
			for g := 0; g < workers; g++ {
				dir := fmt.Sprintf("/g%d", g)
				if err := fs.Mkdir(dir); err != nil {
					b.Fatal(err)
				}
				f, err := fs.Create(dir + "/log")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteAt(line, 0); err != nil {
					b.Fatal(err)
				}
				logs[g] = f
			}
			var next atomic.Int32
			b.SetParallelism(1) // workers = GOMAXPROCS = 8
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := int(next.Add(1)-1) % workers
				buf := make([]byte, 64)
				i := 0
				for pb.Next() {
					name := fmt.Sprintf("/g%d/f%d", g, i)
					f, err := fs.Create(name)
					if err != nil {
						b.Error(err)
						return
					}
					if err := f.Close(); err != nil {
						b.Error(err)
						return
					}
					if _, err := logs[g].WriteAt(buf, 0); err != nil {
						b.Error(err)
						return
					}
					if err := logs[g].Fsync(); err != nil {
						b.Error(err)
						return
					}
					if err := fs.Unlink(name); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// --- micro-benchmarks of the core data paths (unscaled, zero-latency
// device: they measure software overhead, not the emulated medium) ---

func microDevice(b *testing.B) *nvmm.Device {
	b.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

func BenchmarkHiNFSBufferedWrite4K(b *testing.B) {
	dev := microDevice(b)
	fs, err := core.Mkfs(dev, core.Options{BufferBlocks: 16384, PMFS: pmfs.Options{MaxInodes: 1024}})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	const span = int64(8 << 20)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, (int64(i)*4096)%span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPMFSDirectWrite4K(b *testing.B) {
	dev := microDevice(b)
	fs, err := pmfs.Mkfs(dev, pmfs.Options{MaxInodes: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	const span = int64(8 << 20)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, (int64(i)*4096)%span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHiNFSRead4K(b *testing.B) {
	dev := microDevice(b)
	fs, err := core.Mkfs(dev, core.Options{BufferBlocks: 4096, PMFS: pmfs.Options{MaxInodes: 1024}})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	const span = int64(8 << 20)
	if _, err := f.WriteAt(make([]byte, span), 0); err != nil {
		b.Fatal(err)
	}
	f.Fsync()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, (int64(i)*4096)%span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHiNFSMergedRead4K(b *testing.B) {
	// Reads that merge DRAM and NVMM cachelines (dirty middle lines).
	dev := microDevice(b)
	fs, err := core.Mkfs(dev, core.Options{BufferBlocks: 4096, PMFS: pmfs.Options{MaxInodes: 1024}})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	const span = int64(4 << 20)
	if _, err := f.WriteAt(make([]byte, span), 0); err != nil {
		b.Fatal(err)
	}
	f.Fsync()
	// Dirty one cacheline in every block.
	patch := make([]byte, 64)
	for off := int64(1024); off < span; off += 4096 {
		f.WriteAt(patch, off)
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, (int64(i)*4096)%span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFsyncSmallFile(b *testing.B) {
	dev := microDevice(b)
	fs, err := core.Mkfs(dev, core.Options{BufferBlocks: 4096, PMFS: pmfs.Options{MaxInodes: 1024}})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.WriteAt(buf, 0)
		if err := f.Fsync(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCreateUnlinkChurn(b *testing.B) {
	dev := microDevice(b)
	fs, err := core.Mkfs(dev, core.Options{BufferBlocks: 4096, PMFS: pmfs.Options{MaxInodes: 4096}})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	buf := make([]byte, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fs.Create("/churn")
		if err != nil {
			b.Fatal(err)
		}
		f.WriteAt(buf, 0)
		f.Close()
		if err := fs.Unlink("/churn"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLRWSkewedRewrites reports the LRW buffer's write hit
// ratio on an 80/20-skewed rewrite stream over 4x the buffer: higher hit%
// means more coalescing before writeback. This backs the DESIGN.md
// ablation note on LRW.
func BenchmarkAblationLRWSkewedRewrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev := microDevice(b)
		fs, err := core.Mkfs(dev, core.Options{BufferBlocks: 128, PMFS: pmfs.Options{MaxInodes: 1024}})
		if err != nil {
			b.Fatal(err)
		}
		f, _ := fs.Create("/skew")
		rng := workload.NewRand(1)
		buf := make([]byte, 4096)
		for op := 0; op < 4000; op++ {
			// 80/20 skew across 512 blocks with a 128-block buffer.
			blk := int64(rng.HotIntn(512))
			f.WriteAt(buf, blk*4096)
		}
		f.Close()
		hits := fs.Pool().Stats().WriteHits
		fs.Unmount()
		if i == 0 {
			b.ReportMetric(float64(hits)/4000*100, "hit%")
		}
	}
}

// BenchmarkAblationWritebackThresholds sweeps the Low_f/High_f watermarks
// (paper defaults 5%/20%), reporting foreground stalls per 4k writes.
func BenchmarkAblationWritebackThresholds(b *testing.B) {
	configs := []struct {
		name      string
		low, high float64
	}{
		{"low1-high5", 0.01, 0.05},
		{"low5-high20", 0.05, 0.20}, // paper defaults
		{"low20-high50", 0.20, 0.50},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev, err := nvmm.New(nvmm.Config{
					Size: 256 << 20, WriteLatency: 200, WriteBandwidth: 1 << 30, TimeScale: 8})
				if err != nil {
					b.Fatal(err)
				}
				fs, err := core.Mkfs(dev, core.Options{
					BufferBlocks: 256,
					Buffer:       buffer.Config{LowFree: c.low, HighFree: c.high},
					PMFS:         pmfs.Options{MaxInodes: 1024},
				})
				if err != nil {
					b.Fatal(err)
				}
				f, _ := fs.Create("/stream")
				buf := make([]byte, 4096)
				for op := 0; op < 4000; op++ {
					f.WriteAt(buf, int64(op%2048)*4096)
				}
				f.Close()
				stalls := fs.Pool().Stats().Stalls
				fs.Unmount()
				if i == 0 {
					b.ReportMetric(float64(stalls), "stalls")
				}
			}
		})
	}
}
