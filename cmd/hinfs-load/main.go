// Command hinfs-load drives a hinfs-server with many concurrent
// simulated users across tenants and reports per-tenant throughput,
// latency percentiles, and namespace-isolation violations.
//
//	hinfs-load -addr 127.0.0.1:7070 -tenants alpha:1:data,beta:1:data \
//	    -clients 64 -duration 10s
//
//	hinfs-load -selfserve -tenants gold:4:data,bronze:1:mixed -clients 512
//
//	hinfs-load -selfserve -batch 32 -tenants alpha:1:data,beta:1:data
//
// Each tenant spec is name:weight:profile. Profiles: "data" (16 KiB
// reads/writes with an fsync every fourth op), "meta" (create/stat/
// unlink churn), "mixed" (alternating cycles of both). With -batch N > 1,
// data-profile clients submit through the pipelined Batch API with up
// to N ops in flight per connection (meta and mixed stay synchronous),
// and the report gains a realized-pipeline-depth column. In -addr mode
// the tenants must already exist on the server and the weight field is
// informational; with -selfserve an in-process server is constructed
// from the specs, so one process can exercise the full stack (used by
// CI smoke). Every client periodically probes a sibling tenant's
// namespace; any probe that does not come back vfs.ErrInvalid counts as
// an isolation violation. The exit status is nonzero if any client
// errored or any violation occurred.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/harness"
	"hinfs/internal/obs"
	"hinfs/internal/server"
	"hinfs/internal/vfs"
)

type tenantSpec struct {
	name    string
	weight  int
	profile string
}

func parseTenants(s string) ([]tenantSpec, error) {
	var out []tenantSpec
	seen := map[string]bool{}
	for _, spec := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(spec), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("want name:weight:profile, got %q", spec)
		}
		weight, err := strconv.Atoi(parts[1])
		if err != nil || weight <= 0 {
			return nil, fmt.Errorf("bad weight in %q", spec)
		}
		switch parts[2] {
		case "data", "meta", "mixed":
		default:
			return nil, fmt.Errorf("unknown profile %q (want data, meta or mixed)", parts[2])
		}
		if parts[0] == "" || seen[parts[0]] {
			return nil, fmt.Errorf("empty or duplicate tenant name in %q", spec)
		}
		seen[parts[0]] = true
		out = append(out, tenantSpec{name: parts[0], weight: weight, profile: parts[2]})
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("need at least two tenants for isolation probes")
	}
	return out, nil
}

// tenantRun accumulates one tenant's client-side results. depthSum
// holds realized pipeline depth in thousandths (per batched client, at
// exit) so the report's depth column is a mean over clients.
type tenantRun struct {
	ops        atomic.Int64
	errs       atomic.Int64
	violations atomic.Int64
	depthSum   atomic.Int64
	depthN     atomic.Int64
	lat        obs.Hist
}

func main() { os.Exit(run()) }

func run() int {
	var (
		addr      = flag.String("addr", "", "server address to connect to")
		selfserve = flag.Bool("selfserve", false, "run an in-process server instead of connecting")
		system    = flag.String("system", "hinfs", "backing system for -selfserve")
		device    = flag.Int64("device", 256, "emulated device size for -selfserve (MiB)")
		workers   = flag.Int("workers", 2, "scheduler service slots for -selfserve")
		tenantStr = flag.String("tenants", "alpha:1:data,beta:1:data", "tenant specs name:weight:profile, comma-separated")
		clients   = flag.Int("clients", 64, "concurrent clients per tenant")
		duration  = flag.Duration("duration", 5*time.Second, "load window")
		iosize    = flag.Int("iosize", 16<<10, "data op size (bytes)")
		batch     = flag.Int("batch", 1, "pipeline window for data-profile clients (1 = synchronous)")
		slowOp    = flag.Duration("slow-op", 0, "log a JSON line to stderr for every round trip at or over this latency (0 = off); trace IDs match the server's slow-op log")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "hinfs-load:", err)
		return 1
	}
	tenants, err := parseTenants(*tenantStr)
	if err != nil {
		return fail(err)
	}
	if *iosize <= 0 || *iosize > server.MaxIO {
		return fail(fmt.Errorf("iosize must be in (0, %d]", server.MaxIO))
	}
	if *batch < 1 || *batch > server.DefaultBatchWindow {
		return fail(fmt.Errorf("batch must be in [1, %d]", server.DefaultBatchWindow))
	}
	if (*addr == "") == !*selfserve {
		return fail(fmt.Errorf("exactly one of -addr or -selfserve is required"))
	}

	target := *addr
	if *selfserve {
		inst, err := harness.NewInstance(harness.System(*system), harness.Config{DeviceSize: *device << 20})
		if err != nil {
			return fail(err)
		}
		defer inst.Close()
		srvTenants := make(map[string]server.TenantConfig, len(tenants))
		for _, tn := range tenants {
			srvTenants[tn.name] = server.TenantConfig{Root: "/tenants/" + tn.name, Weight: tn.weight}
		}
		srv, err := server.New(server.Config{
			FS: inst.FS, Tenants: srvTenants, Workers: *workers,
			// Batched dispatch coalesces each batch's trailing persist
			// fences into one ordering point (see nvmm.FenceScope).
			BatchFences: func() server.PersistScope { return inst.Dev.EnterFenceScope() },
		})
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		go srv.Serve(ln)
		target = ln.Addr().String()
		fmt.Printf("hinfs-load: self-serving %s on %s\n", *system, target)
	}

	// One shared client-side slow-op log: every client stamps its records
	// with side "client" and the wire trace ID, so a slow round trip here
	// joins to the server's record for the same request.
	var slowLog *obs.SlowLog
	if *slowOp > 0 {
		slowLog = obs.NewSlowLog(os.Stderr, *slowOp)
	}

	runs := make(map[string]*tenantRun, len(tenants))
	for _, tn := range tenants {
		runs[tn.name] = &tenantRun{}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ti, tn := range tenants {
		other := tenants[(ti+1)%len(tenants)].name
		for i := 0; i < *clients; i++ {
			wg.Add(1)
			go func(tn tenantSpec, i int) {
				defer wg.Done()
				client(target, tn, other, i, *iosize, *batch, runs[tn.name], slowLog, stop)
			}(tn, i)
		}
	}
	fmt.Printf("hinfs-load: %d tenants x %d clients against %s for %v\n",
		len(tenants), *clients, target, *duration)
	start := time.Now()
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	var total, badness int64
	for _, tn := range tenants {
		total += runs[tn.name].ops.Load()
	}
	fmt.Println("tenant        weight  profile  ops      ops/s    share  p50(us)   p99(us)   p999(us)  depth  errors  violations")
	for _, tn := range tenants {
		r := runs[tn.name]
		ops := r.ops.Load()
		share := 0.0
		if total > 0 {
			share = 100 * float64(ops) / float64(total)
		}
		p50, _, p99, p999 := r.lat.Snapshot().Percentiles()
		depth := "-"
		if n := r.depthN.Load(); n > 0 {
			depth = fmt.Sprintf("%.1f", float64(r.depthSum.Load())/float64(n)/1000)
		}
		fmt.Printf("%-12s  %6d  %-7s  %-7d  %-7.0f  %4.1f%%  %-8.1f  %-8.1f  %-8.1f  %5s  %6d  %10d\n",
			tn.name, tn.weight, tn.profile, ops, float64(ops)/elapsed.Seconds(), share,
			float64(p50)/1e3, float64(p99)/1e3, float64(p999)/1e3, depth,
			r.errs.Load(), r.violations.Load())
		badness += r.errs.Load() + r.violations.Load()
	}
	if badness > 0 {
		fmt.Fprintf(os.Stderr, "hinfs-load: FAILED: %d client errors / isolation violations\n", badness)
		return 1
	}
	fmt.Println("hinfs-load: ok — zero client errors, zero isolation violations")
	return 0
}

// client simulates one user until stop closes: synchronous round trips
// by default, the pipelined Batch path for data-profile clients when
// batch > 1.
func client(addr string, tn tenantSpec, other string, id, iosize, batch int, run *tenantRun, slow *obs.SlowLog, stop <-chan struct{}) {
	c, err := server.Dial(addr, tn.name)
	if err != nil {
		run.errs.Add(1)
		return
	}
	defer c.Unmount()
	c.SetSlowOpLog(slow)
	f, err := c.Create(fmt.Sprintf("/u%d", id))
	if err != nil {
		run.errs.Add(1)
		return
	}
	defer f.Close()
	if batch > 1 && tn.profile == "data" {
		batchedClient(c, f, other, batch, iosize, run, stop)
		return
	}
	buf := make([]byte, iosize)
	for j := 0; ; j++ {
		select {
		case <-stop:
			return
		default:
		}
		start := time.Now()
		var err error
		meta := tn.profile == "meta" || (tn.profile == "mixed" && j%16 >= 8)
		if meta {
			err = metaOp(c, id, j)
		} else {
			err = dataOp(f, buf, j)
		}
		if err != nil {
			// A shutdown race at window close is not a client failure.
			if err != vfs.ErrUnmounted {
				run.errs.Add(1)
			}
			return
		}
		run.lat.ObserveSince(start)
		run.ops.Add(1)
		if j%64 == 63 {
			// Escape probe: a sibling tenant's namespace must be
			// structurally unreachable.
			if _, err := c.Stat("/../" + other + "/u0"); err != vfs.ErrInvalid {
				run.violations.Add(1)
			}
		}
	}
}

// batchedClient drives the data profile through the pipelined Batch
// API: each round queues 32 ops in dataOp's write/read/fsync cadence
// with up to `window` in flight on the connection, then reaps them
// together. Per-op latency lands in the tenant histogram via the
// batch's latency hook; realized pipeline depth is recorded at exit.
func batchedClient(c *server.Client, f vfs.File, other string, window, iosize int, run *tenantRun, stop <-chan struct{}) {
	b := c.NewBatch()
	b.SetWindow(window)
	b.SetLatency(&run.lat)
	wbuf := make([]byte, iosize)
	// A reply may land any time before Wait returns, so in-flight reads
	// cannot share a destination buffer.
	rbufs := make([][]byte, 32)
	for k := range rbufs {
		rbufs[k] = make([]byte, iosize)
	}
	for j, round := 0, 0; ; round++ {
		select {
		case <-stop:
			run.depthSum.Add(int64(b.AchievedDepth() * 1000))
			run.depthN.Add(1)
			return
		default:
		}
		for k := 0; k < 32; k++ {
			switch {
			case j%4 == 3:
				b.Fsync(f)
			case j%2 == 0:
				b.WriteAt(f, wbuf, int64(j%32)*int64(iosize))
			default:
				b.ReadAt(f, rbufs[k], int64((j-1)%32)*int64(iosize))
			}
			j++
		}
		if err := b.Wait(); err != nil {
			// A shutdown race at window close is not a client failure.
			if err != vfs.ErrUnmounted {
				run.errs.Add(1)
			}
			return
		}
		for _, o := range b.Ops() {
			// io.EOF is still contractual on a fresh file's first lap.
			if o.Err != nil && o.Err != io.EOF {
				run.errs.Add(1)
				return
			}
		}
		run.ops.Add(int64(b.Len()))
		b.Reset()
		if round%8 == 7 {
			// Escape probe, same contract as the synchronous path.
			if _, err := c.Stat("/../" + other + "/u0"); err != vfs.ErrInvalid {
				run.violations.Add(1)
			}
		}
	}
}

// dataOp issues the data-profile op for step j: write, read, write,
// fsync, repeating. Reads target the slot the previous step wrote, so
// they return data rather than EOF.
func dataOp(f vfs.File, buf []byte, j int) error {
	switch {
	case j%4 == 3:
		return f.Fsync()
	case j%2 == 0:
		_, err := f.WriteAt(buf, int64(j%32)*int64(len(buf)))
		return err
	default:
		off := int64((j-1)%32) * int64(len(buf))
		// io.EOF is still contractual on a fresh file's first lap.
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			return err
		}
		return nil
	}
}

// metaOp issues the metadata-profile op for step j: create, stat,
// unlink, repeating over a per-client path.
func metaOp(c *server.Client, id, j int) error {
	path := fmt.Sprintf("/m%d-%d", id, j/3%8)
	switch j % 3 {
	case 0:
		f, err := c.Create(path)
		if err != nil {
			return err
		}
		return f.Close()
	case 1:
		_, err := c.Stat(path)
		if err == vfs.ErrNotExist {
			// A sibling step may have raced the unlink; absence is fine.
			return nil
		}
		return err
	default:
		if err := c.Unlink(path); err != nil && err != vfs.ErrNotExist {
			return err
		}
		return nil
	}
}
