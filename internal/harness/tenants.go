package harness

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/server"
	"hinfs/internal/vfs"
)

// FigureTenants measures the multi-tenant front-end: an in-process server
// over a real TCP loopback listener, two tenants with a 4:1 fair-share
// weight ratio and equal client counts, each client issuing 16 KiB reads
// and writes with an fsync every fourth op against its own file for a
// fixed wall-clock window. The fsyncs force foreground flushes to
// emulated NVMM, so the scheduler's service slots — not the network — are
// the contended resource. Reported per tenant: completed ops, throughput
// and its share, the share of measured service time (svc-share — the quantity
// the weights divide; under contention it should track the 4:1 ratio),
// client-observed latency percentiles (p50/p99/p999), quota rejections,
// and namespace escape attempts that succeeded (must be zero).
func FigureTenants(cfg Config, o Opts) (*Figure, error) {
	cfg.Fill()
	clients := 32
	window := 1500 * time.Millisecond
	if o.Quick {
		clients = 8
		window = 500 * time.Millisecond
	}
	if o.Threads > 0 {
		clients = o.Threads
	}

	inst, err := NewInstance(HiNFS, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.Close()

	tenants := []struct {
		name   string
		weight int
	}{
		{"gold", 4},
		{"bronze", 1},
	}
	srvTenants := make(map[string]server.TenantConfig)
	for _, tn := range tenants {
		srvTenants[tn.name] = server.TenantConfig{Root: "/tenants/" + tn.name, Weight: tn.weight}
	}
	// Two service slots: fewer than clients, so the
	// fair scheduler — not goroutine scheduling — resolves contention.
	srv, err := server.New(server.Config{FS: inst.FS, Tenants: srvTenants, Workers: 2})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	type tenantRun struct {
		ops        atomic.Int64
		violations atomic.Int64
		errs       atomic.Int64
		lat        obs.Hist
	}
	runs := make(map[string]*tenantRun, len(tenants))
	for _, tn := range tenants {
		runs[tn.name] = &tenantRun{}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ti, tn := range tenants {
		other := tenants[1-ti].name
		run := runs[tn.name]
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(tenant string, i int) {
				defer wg.Done()
				c, err := server.Dial(addr, tenant)
				if err != nil {
					run.errs.Add(1)
					return
				}
				defer c.Unmount()
				f, err := c.Create(fmt.Sprintf("/u%d", i))
				if err != nil {
					run.errs.Add(1)
					return
				}
				defer f.Close()
				buf := make([]byte, 16<<10)
				for j := 0; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					start := time.Now()
					var err error
					switch {
					case j%4 == 3:
						// Periodic durability point: flushes the dirty
						// DRAM-buffered blocks to NVMM at emulated media
						// latency, in the issuing request's service slot.
						err = f.Fsync()
					case j%2 == 0:
						_, err = f.WriteAt(buf, int64(j%32)*(16<<10))
					default:
						// Read back the slot the previous step wrote; io.EOF
						// stays contractual on the first lap of a fresh file.
						if _, err = f.ReadAt(buf, int64((j-1)%32)*(16<<10)); err == io.EOF {
							err = nil
						}
					}
					if err != nil && err != vfs.ErrUnmounted {
						run.errs.Add(1)
						return
					}
					run.lat.ObserveSince(start)
					run.ops.Add(1)
					if j%64 == 63 {
						// Periodic escape probe against the sibling tenant.
						if _, err := c.Stat("/../" + other + "/u0"); err != vfs.ErrInvalid {
							run.violations.Add(1)
						}
					}
				}
			}(tn.name, i)
		}
	}
	startAll := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(startAll)

	fig := &Figure{Table: Table{
		Title: "Multi-tenant fairness: weighted service shares over a loopback server",
		Note: fmt.Sprintf("HiNFS backend, %d clients/tenant, 16KiB R/W + fsync every 4 ops, %v window, 2 service slots; svc-share should track the 4:1 weights",
			clients, window),
		Header: []string{"tenant", "weight", "ops", "ops/s", "share", "svc-share", "p50(us)", "p99(us)", "p999(us)", "quota-rej", "escapes"},
	}}
	var total int64
	for _, tn := range tenants {
		total += runs[tn.name].ops.Load()
	}
	stats := srv.Stats()
	var totalSvc int64
	for _, ts := range stats {
		totalSvc += ts.ServiceNS
	}
	for _, tn := range tenants {
		run := runs[tn.name]
		if run.errs.Load() > 0 {
			return nil, fmt.Errorf("tenants: %d client errors for %s", run.errs.Load(), tn.name)
		}
		ops := run.ops.Load()
		snap := run.lat.Snapshot()
		p50, _, p99, p999 := snap.Percentiles()
		share := 0.0
		if total > 0 {
			share = float64(ops) / float64(total)
		}
		var rejects, svcNS int64
		for _, ts := range stats {
			if ts.Name == tn.name {
				rejects, svcNS = ts.QuotaRejects, ts.ServiceNS
			}
		}
		svcShare := 0.0
		if totalSvc > 0 {
			svcShare = float64(svcNS) / float64(totalSvc)
		}
		opsps := float64(ops) / elapsed.Seconds()
		fig.Table.Rows = append(fig.Table.Rows, []string{
			tn.name, fmt.Sprint(tn.weight), fmt.Sprint(ops),
			fmt.Sprintf("%.0f", opsps), fmt.Sprintf("%.1f%%", 100*share),
			fmt.Sprintf("%.1f%%", 100*svcShare),
			fmt.Sprintf("%.1f", float64(p50)/1e3),
			fmt.Sprintf("%.1f", float64(p99)/1e3),
			fmt.Sprintf("%.1f", float64(p999)/1e3),
			fmt.Sprint(rejects), fmt.Sprint(run.violations.Load()),
		})
		fig.put(tn.name+"/ops", float64(ops))
		fig.put(tn.name+"/opsps", opsps)
		fig.put(tn.name+"/share", share)
		fig.put(tn.name+"/svcshare", svcShare)
		fig.put(tn.name+"/p50us", float64(p50)/1e3)
		fig.put(tn.name+"/p99us", float64(p99)/1e3)
		fig.put(tn.name+"/p999us", float64(p999)/1e3)
		fig.put(tn.name+"/violations", float64(run.violations.Load()))
	}

	// Secondary table: where each tenant's measured latency went. The
	// attributed stages (queue+quota+lock+stall+flush) should sum to the
	// measured admission-to-completion time; the residual inside the
	// service stage is unattributed compute (memcpy, framing, handle
	// lookups) and is reported as its own column so it cannot hide.
	att := Table{
		Title:  "Per-tenant stage attribution of measured latency",
		Note:   "attributed = queue+quota+lock+stall+flush; measured = scheduler admission to completion; attributed/measured should be ~1",
		Header: []string{"tenant", "measured(ms)", "queue", "quota", "lock", "stall", "flush", "other", "attributed"},
	}
	for _, tn := range tenants {
		var ts server.TenantStats
		for i := range stats {
			if stats[i].Name == tn.name {
				ts = stats[i]
			}
		}
		measured := ts.MeasuredNS()
		stagePct := func(name string) string {
			return fmt.Sprintf("%.1f%%", 100*fracNS(ts.StageNS[name], measured))
		}
		var attributed int64
		for _, st := range []string{"queue", "quota", "lock", "stall", "flush"} {
			attributed += ts.StageNS[st]
			fig.put(tn.name+"/stage/"+st, float64(ts.StageNS[st]))
		}
		other := ts.StageNS["service"] - (attributed - ts.StageNS["queue"])
		if other < 0 {
			other = 0
		}
		ratio := fracNS(attributed, measured)
		att.Rows = append(att.Rows, []string{
			tn.name,
			fmt.Sprintf("%.1f", float64(measured)/1e6),
			stagePct("queue"), stagePct("quota"), stagePct("lock"),
			stagePct("stall"), stagePct("flush"),
			fmt.Sprintf("%.1f%%", 100*fracNS(other, measured)),
			fmt.Sprintf("%.1f%%", 100*ratio),
		})
		fig.put(tn.name+"/measuredns", float64(measured))
		fig.put(tn.name+"/attribution", ratio)
	}
	fig.Extra = append(fig.Extra, att)
	return fig, nil
}

// fracNS is part/whole for int64 nanosecond sums, 0 when whole is 0.
func fracNS(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
