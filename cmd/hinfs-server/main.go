// Command hinfs-server exports a file system on emulated NVMM to many
// clients over a framed-RPC TCP protocol, with per-tenant namespace
// confinement (chroot-style subtree views), byte quotas, and weighted
// fair scheduling of service time.
//
//	hinfs-server -addr 127.0.0.1:7070 \
//	    -tenant gold:/tenants/gold:4:0 \
//	    -tenant bronze:/tenants/bronze:1:64 \
//	    -debug-addr 127.0.0.1:6070 -stats-interval 5s -slow-op 50ms
//
// Each -tenant flag declares name:root:weight:quotaMiB (quota 0 =
// unlimited). With no -tenant flags, two equal-weight tenants "alpha"
// and "beta" are created.
//
// -debug-addr serves the observability endpoints: /metrics (Prometheus
// text exposition of per-tenant counters, stage attribution, window
// latency quantiles and scheduler state — what hinfs-top polls),
// /debug/obs (full TenantStats and collector snapshots as JSON),
// /debug/vars and /debug/pprof. -stats-interval dumps the per-tenant
// table to stdout periodically; -slow-op writes a JSON line to stderr
// for every request at or over the threshold, with its wire-propagated
// trace ID and per-stage latency breakdown. SIGINT/SIGTERM shuts the
// server down cleanly and dumps final statistics.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hinfs/internal/harness"
	"hinfs/internal/obs"
	"hinfs/internal/server"
)

// tenantFlags collects repeatable -tenant name:root:weight:quotaMiB specs.
type tenantFlags map[string]server.TenantConfig

func (t tenantFlags) String() string { return fmt.Sprint(map[string]server.TenantConfig(t)) }

func (t tenantFlags) Set(spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		return fmt.Errorf("want name:root:weight:quotaMiB, got %q", spec)
	}
	name, root := parts[0], parts[1]
	if name == "" || root == "" {
		return fmt.Errorf("empty tenant name or root in %q", spec)
	}
	weight, err := strconv.Atoi(parts[2])
	if err != nil || weight <= 0 {
		return fmt.Errorf("bad weight in %q", spec)
	}
	quota, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil || quota < 0 {
		return fmt.Errorf("bad quotaMiB in %q", spec)
	}
	if _, dup := t[name]; dup {
		return fmt.Errorf("duplicate tenant %q", name)
	}
	t[name] = server.TenantConfig{Root: root, Weight: weight, QuotaBytes: quota << 20}
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		system    = flag.String("system", "hinfs", "backing system: hinfs, pmfs, ext4-dax, ext2-nvmmbd, ext4-nvmmbd")
		device    = flag.Int64("device", 256, "emulated device size (MiB)")
		latency   = flag.Duration("latency", 200*time.Nanosecond, "NVMM write latency per cacheline")
		workers   = flag.Int("workers", 2, "concurrently executing requests (fair-scheduler service slots)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/obs, /debug/vars and /debug/pprof on this address")
		statsIvl  = flag.Duration("stats-interval", 0, "dump the per-tenant stats table to stdout at this interval (0 = only at shutdown)")
		slowOp    = flag.Duration("slow-op", 0, "log a JSON line to stderr for every request at or over this latency (0 = off)")
		flightBlk = flag.Int64("flight", 32, "NVMM flight-recorder region size in 4 KiB blocks; one record per dispatched request; survives a simulated power cut, lost at process exit (0 = off; hinfs/pmfs only)")
		tenants   = tenantFlags{}
	)
	flag.Var(tenants, "tenant", "tenant spec name:root:weight:quotaMiB (repeatable)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "hinfs-server:", err)
		return 1
	}
	if len(tenants) == 0 {
		tenants["alpha"] = server.TenantConfig{Root: "/tenants/alpha", Weight: 1}
		tenants["beta"] = server.TenantConfig{Root: "/tenants/beta", Weight: 1}
	}

	inst, err := harness.NewInstance(harness.System(*system), harness.Config{
		DeviceSize:   *device << 20,
		WriteLatency: *latency,
		FlightBlocks: *flightBlk,
		// The debug endpoint implies collection: the instance's collector
		// (op-class and decision-path histograms) backs /debug/obs.
		Observe: *debugAddr != "",
	})
	if err != nil {
		return fail(err)
	}
	defer inst.Close()
	if *flightBlk > 0 && inst.Flight == nil {
		fmt.Fprintf(os.Stderr, "hinfs-server: %s persists no flight ring; recording disabled\n", *system)
	}

	srv, err := server.New(server.Config{
		FS:              inst.FS,
		Tenants:         tenants,
		Workers:         *workers,
		SlowOpThreshold: *slowOp,
		Flight:          inst.Flight,
	})
	if err != nil {
		return fail(err)
	}
	if *debugAddr != "" {
		obs.Default.Register("server", func() any { return srv.Stats() })
		obs.Default.RegisterProm("server", srv.WriteProm)
		dbg, err := obs.ServeDebug(*debugAddr, obs.Default)
		if err != nil {
			return fail(err)
		}
		defer dbg.Close()
		fmt.Printf("hinfs-server: metrics on http://%s/metrics\n", dbg.Addr)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("hinfs-server: %s on %s, %d tenants, %d workers\n",
		*system, ln.Addr(), len(tenants), *workers)
	for name, tc := range tenants {
		quota := "unlimited"
		if tc.QuotaBytes > 0 {
			quota = fmt.Sprintf("%d MiB", tc.QuotaBytes>>20)
		}
		fmt.Printf("hinfs-server:   tenant %s root=%s weight=%d quota=%s\n",
			name, tc.Root, tc.Weight, quota)
	}
	if inst.Flight != nil {
		fmt.Printf("hinfs-server:   flight ring %d slots (%d blocks; survives a simulated power cut, lost at process exit)\n",
			inst.Flight.Slots(), *flightBlk)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var tick <-chan time.Time
	if *statsIvl > 0 {
		t := time.NewTicker(*statsIvl)
		defer t.Stop()
		tick = t.C
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
loop:
	for {
		select {
		case sig := <-sigc:
			fmt.Printf("hinfs-server: %v, shutting down\n", sig)
			break loop
		case <-tick:
			dumpStats(srv)
		case err := <-errc:
			if err != nil {
				return fail(err)
			}
			break loop
		}
	}
	if err := srv.Close(); err != nil {
		return fail(err)
	}
	dumpStats(srv)
	return 0
}

func dumpStats(srv *server.Server) {
	fmt.Println("tenant          ops   MB-read  MB-written  used-MB  quota-rej  svc-ms  queue%  flush%  qdepth  write-p99(us)")
	for _, ts := range srv.Stats() {
		_, _, wp99, _ := ts.WriteLat.Percentiles()
		measured := ts.MeasuredNS()
		share := func(stage string) float64 {
			if measured <= 0 {
				return 0
			}
			return 100 * float64(ts.StageNS[stage]) / float64(measured)
		}
		fmt.Printf("%-12s  %6d  %8.1f  %10.1f  %7.1f  %9d  %6d  %5.1f%%  %5.1f%%  %6d  %13.1f\n",
			ts.Name, ts.Ops,
			float64(ts.BytesRead)/(1<<20), float64(ts.BytesWritten)/(1<<20),
			float64(ts.UsedBytes)/(1<<20), ts.QuotaRejects,
			ts.ServiceNS/1e6, share("queue"), share("flush"),
			ts.Sched.QueueDepth, float64(wp99)/1e3)
	}
}
