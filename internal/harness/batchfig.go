package harness

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/server"
)

// batchSpeedupFloor is the acceptance gate on the pipelined submission
// path: at batch 32 HiNFS must move small ops at least this multiple of
// the synchronous (batch 1) rate over the same loopback server.
//
// Sizing: healthy runs measure 2.0–2.9x (2.4x full mode on the
// reference container); a broken pipeline degenerates to ~1.0x. The
// floor sits between the two rather than at the healthy edge because
// the ratio compresses under outside load — batch 32 is nearly pure
// service time while batch 1 is turnaround-dominated, so a uniformly
// slower machine (shared runner, thermal clamp, a heavy figure that
// ran just before) inflates service and squeezes the speedup toward
// 1x. 1.5 catches the failure mode without tripping on the venue.
const batchSpeedupFloor = 1.5

// batchSizes is the pipeline-depth sweep of -fig batch.
func batchSizes(quick bool) []int {
	if quick {
		return []int{1, 8, 32}
	}
	return []int{1, 2, 4, 8, 16, 32, 64}
}

// FigureBatch measures batched asynchronous submission end to end: HiNFS
// and PMFS behind the multi-tenant server on a real TCP loopback, a few
// clients each pumping small 256 B reads and writes (fsync every 32
// ops) through the pipelined Batch API at increasing window sizes. Batch 1 is the
// synchronous RPC baseline; deeper windows overlap wire turnarounds and
// let the server's grouped dispatches coalesce trailing persist fences.
// Reported per point: ops/s, speedup over batch 1, client-observed
// p50/p999, realized pipeline depth, and device fences per op — for HiNFS
// mostly the fsyncs', at any batch size: the stream's lazy writes stay
// inside the file and issue no fence to coalesce (the batchfence crash
// workload is what guards the elision). The run fails if HiNFS's batch-32
// speedup is below the acceptance floor — that gate is what makes the
// CI leg a regression tripwire, not a chart generator.
func FigureBatch(cfg Config, o Opts) (*Figure, error) {
	// Real-time scale: pipelining removes protocol turnaround, which
	// scaled device delays would drown out.
	cfg.TimeScale = 1
	cfg.Fill()
	clients := 4
	window := 700 * time.Millisecond
	if o.Quick {
		window = 400 * time.Millisecond
	}
	if o.Threads > 0 {
		clients = o.Threads
	}
	sizes := batchSizes(o.Quick)
	systems := []System{HiNFS, PMFS}

	fig := &Figure{Table: Table{
		Title: "Batched submission: pipelined ops/s vs batch size over a loopback server",
		Note: fmt.Sprintf("%d clients, 256B 50/50 read/write + fsync every 32 ops, %v/point, 4 workers; batch 1 = synchronous RPC; fences/op = device fences issued per op",
			clients, window),
		Header: []string{"system", "batch", "ops/s", "speedup", "p50(us)", "p999(us)", "depth", "fences/op"},
	}}

	for _, sys := range systems {
		baseline := 0.0
		for _, size := range sizes {
			opsps, p50, p999, depth, fpo, err := runBatchPoint(sys, cfg, clients, size, window)
			if err != nil {
				return nil, fmt.Errorf("batch: %s batch %d: %w", sys, size, err)
			}
			if size == 1 {
				baseline = opsps
			}
			speedup := 0.0
			if baseline > 0 {
				speedup = opsps / baseline
			}
			key := fmt.Sprintf("%s/%d", sys, size)
			fig.Table.Rows = append(fig.Table.Rows, []string{
				string(sys), fmt.Sprint(size), fmt.Sprintf("%.0f", opsps),
				fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%.1f", float64(p50)/1e3),
				fmt.Sprintf("%.1f", float64(p999)/1e3),
				fmt.Sprintf("%.1f", depth),
				fmt.Sprintf("%.2f", fpo),
			})
			fig.put(key+"/opsps", opsps)
			fig.put(key+"/speedup", speedup)
			fig.put(key+"/p50us", float64(p50)/1e3)
			fig.put(key+"/p999us", float64(p999)/1e3)
			fig.put(key+"/depth", depth)
			fig.put(key+"/fencesperop", fpo)
		}
	}

	if got := fig.Get("hinfs/32/speedup"); got < batchSpeedupFloor {
		return fig, fmt.Errorf("batch: hinfs batch-32 speedup %.2fx below the %.1fx floor",
			got, batchSpeedupFloor)
	}
	return fig, nil
}

// runBatchPoint measures one (system, batch size) point on a fresh
// instance and server.
func runBatchPoint(sys System, cfg Config, clients, size int, window time.Duration) (opsps float64, p50, p999 int64, depth, fencesPerOp float64, err error) {
	// Earlier figures in the same invocation (-fig all) can leave
	// hundreds of MiB of dead device arrays behind; collect them so
	// their GC work does not land inside the measured window.
	runtime.GC()
	inst, err := NewInstance(sys, cfg)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	defer inst.Close()
	dev := inst.Dev
	srv, err := server.New(server.Config{
		FS:      inst.FS,
		Tenants: map[string]server.TenantConfig{"t": {Root: "/t", Weight: 1}},
		Workers: 4,
		BatchFences: func() server.PersistScope {
			return dev.EnterFenceScope()
		},
	})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	var (
		wg       sync.WaitGroup
		ops      atomic.Int64
		depthSum int64
		depthN   int64
		errsCh   = make(chan error, clients)
		hists    = make([]*obs.Hist, clients)
		stop     = make(chan struct{})
	)
	var depthMu sync.Mutex
	for i := 0; i < clients; i++ {
		hists[i] = &obs.Hist{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := server.Dial(addr, "t")
			if err != nil {
				errsCh <- err
				return
			}
			defer c.Unmount()
			f, err := c.Create(fmt.Sprintf("/f%d", i))
			if err != nil {
				errsCh <- err
				return
			}
			defer f.Close()
			b := c.NewBatch()
			b.SetWindow(size)
			b.SetLatency(hists[i])
			wbuf := make([]byte, 256)
			// One read destination per queued op: a reply may land any
			// time before Wait returns, so in-flight reads cannot share.
			rbufs := make([][]byte, 32)
			for k := range rbufs {
				rbufs[k] = make([]byte, 256)
			}
			// Each round is one pipelined burst: 32 small ops (50/50
			// read/write) round-robin over 8 file slots plus a trailing
			// fsync — the durability cadence of a small-record store.
			for j := 0; ; {
				select {
				case <-stop:
					depthMu.Lock()
					depthSum += int64(b.AchievedDepth() * 1000)
					depthN++
					depthMu.Unlock()
					return
				default:
				}
				for k := 0; k < 32; k++ {
					if k%2 == 0 {
						b.WriteAt(f, wbuf, int64(j%8)*(4<<10))
					} else {
						b.ReadAt(f, rbufs[k], int64(j%8)*(4<<10))
					}
					j++
				}
				b.Fsync(f)
				if err := b.Wait(); err != nil {
					errsCh <- err
					return
				}
				for _, o := range b.Ops() {
					// io.EOF is a short read at a not-yet-written slot
					// (first round only), not a failure.
					if o.Err != nil && o.Err != io.EOF {
						errsCh <- o.Err
						return
					}
				}
				ops.Add(int64(b.Len()))
				b.Reset()
			}
		}(i)
	}
	// Warm up before the clock starts: Dial, Create, first-lap EOF
	// reads, and scheduler ramp all land outside the measured window,
	// so short (quick-mode) windows measure the same steady state as
	// long ones.
	time.Sleep(150 * time.Millisecond)
	before := dev.Stats()
	ops.Store(0)
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	close(errsCh)
	for e := range errsCh {
		return 0, 0, 0, 0, 0, e
	}
	after := dev.Stats()

	total := ops.Load()
	merged := &obs.Hist{}
	for _, h := range hists {
		merged.Merge(h)
	}
	snap := merged.Snapshot()
	p50v, _, _, p999v := snap.Percentiles()
	if depthN > 0 {
		depth = float64(depthSum) / float64(depthN) / 1000
	}
	if total > 0 {
		fencesPerOp = float64(after.Fences-before.Fences) / float64(total)
	}
	return float64(total) / elapsed.Seconds(), p50v, p999v, depth, fencesPerOp, nil
}
