package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

// TestStageAttribution drives enough fsync-heavy load through the server
// to exercise every charge site and checks the acceptance property: the
// attributed stages (queue+quota+lock+stall+flush) account for the
// measured admission-to-completion latency, within tolerance.
func TestStageAttribution(t *testing.T) {
	// A device with emulated persist latency, as deployments have: without
	// it, service time is all unattributable real compute and the
	// attribution ratio is meaningless.
	dev, err := nvmm.New(nvmm.Config{
		Size:           128 << 20,
		WriteLatency:   200 * time.Nanosecond,
		WriteBandwidth: 1 << 30,
		TimeScale:      16,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pmfs.Mkfs(dev, pmfs.Options{MaxInodes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		FS:      fs,
		Tenants: map[string]TenantConfig{"alpha": {Root: "/t/alpha", Weight: 1, QuotaBytes: 64 << 20}},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := pipeClient(t, srv, "alpha")
			f, err := c.Create("/f" + string(rune('a'+i)))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			buf := make([]byte, 8<<10)
			for j := 0; j < 30; j++ {
				if _, err := f.WriteAt(buf, int64(j%4)*int64(len(buf))); err != nil {
					t.Error(err)
					return
				}
				if j%3 == 2 {
					if err := f.Fsync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()

	ts := srv.Stats()[0]
	measured := ts.MeasuredNS()
	if measured <= 0 {
		t.Fatal("no measured latency")
	}
	if ts.StageNS["queue"] <= 0 {
		t.Error("no queue time attributed with 8 clients on 2 workers")
	}
	if ts.StageNS["service"] <= 0 {
		t.Error("no service time attributed")
	}
	if ts.StageNS["flush"] <= 0 {
		t.Error("no flush time attributed despite fsyncs")
	}
	var attributed int64
	for _, st := range []string{"queue", "quota", "lock", "stall", "flush"} {
		attributed += ts.StageNS[st]
	}
	// Attribution must neither miss most of the latency nor exceed it by
	// more than bookkeeping skew (stage charges and the latency clock are
	// read at slightly different instants). The floor is loose because
	// StageFlush charges analytic device time when no collector is
	// attached: the emulation's wall overshoot (spin-wait quantization,
	// preemption on small hosts) is real latency but lands in
	// unattributed service, not flush.
	if ratio := float64(attributed) / float64(measured); ratio < 0.35 || ratio > 1.1 {
		t.Errorf("attributed/measured = %.2f (attributed %d, measured %d, stages %v)",
			ratio, attributed, measured, ts.StageNS)
	}
	// The non-queue attributed stages all happen inside the service slot.
	inService := attributed - ts.StageNS["queue"]
	if inService > ts.StageNS["service"] {
		t.Errorf("in-service stages %d exceed service time %d", inService, ts.StageNS["service"])
	}
	if ts.Sched.ServiceNS <= 0 {
		t.Error("scheduler reports no service time")
	}
	if ts.Sched.QueueDepth != 0 {
		t.Errorf("queue depth %d after quiesce", ts.Sched.QueueDepth)
	}
	// Window metrics saw the same ops.
	var winCount int64
	for _, h := range ts.WindowLat {
		winCount += h.Count
	}
	if winCount == 0 {
		t.Error("window metrics recorded nothing")
	}
}

// TestSlowOpTraceMatch is the end-to-end trace-propagation check: with
// log-everything thresholds on both sides, every server record's trace
// ID must also appear in the client's log — the same u64 that crossed
// the wire in the request frame.
func TestSlowOpTraceMatch(t *testing.T) {
	var serverLog bytes.Buffer
	srv, err := New(Config{
		FS:              testFS(t),
		Tenants:         map[string]TenantConfig{"alpha": {Root: "/t/alpha", Weight: 1}},
		Workers:         1,
		SlowOpThreshold: time.Nanosecond, // log every op
		SlowOpLog:       &serverLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var clientLog bytes.Buffer
	c := pipeClient(t, srv, "alpha")
	c.SetSlowOpLog(obs.NewSlowLog(&clientLog, time.Nanosecond))

	f, err := c.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Server-side slow-op records land just after each reply is written;
	// drain before parsing the log.
	c.Unmount()
	srv.Close()

	parse := func(buf *bytes.Buffer) map[string]obs.SlowOp {
		out := map[string]obs.SlowOp{}
		sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
		for sc.Scan() {
			var op obs.SlowOp
			if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
				t.Fatalf("bad slow-op line %q: %v", sc.Text(), err)
			}
			out[op.Trace+"/"+op.Op] = op
		}
		return out
	}
	serverOps := parse(&serverLog)
	clientOps := parse(&clientLog)
	if len(serverOps) == 0 || len(clientOps) == 0 {
		t.Fatalf("server logged %d, client logged %d", len(serverOps), len(clientOps))
	}
	matched := 0
	for key, sop := range serverOps {
		cop, ok := clientOps[key]
		if !ok {
			t.Errorf("server op %s has no client record", key)
			continue
		}
		matched++
		if sop.Side != "server" || cop.Side != "client" {
			t.Errorf("sides = %q/%q", sop.Side, cop.Side)
		}
		if sop.Trace == obs.TraceString(0) {
			t.Error("zero trace ID crossed the wire")
		}
		// The client clock includes the wire; it can never be under the
		// server's measured latency by more than clock skew.
		if cop.TotalNS < sop.TotalNS/2 {
			t.Errorf("%s: client %dns vs server %dns", key, cop.TotalNS, sop.TotalNS)
		}
		if sop.Op == "fsync" && sop.Stages["service"] <= 0 {
			t.Errorf("fsync record missing stage breakdown: %v", sop.Stages)
		}
	}
	if matched == 0 {
		t.Fatal("no trace matched between client and server logs")
	}
	if got := srv.SlowOpsLogged(); got != int64(len(serverOps)) {
		t.Errorf("SlowOpsLogged = %d, want %d", got, len(serverOps))
	}
}

// TestWrapFSOverClient checks the obs wrapper composes over the remote
// file system too: a server.Client wrapped by obs.WrapFS records op
// classes like any local system — the coverage the harness relies on
// when it benchmarks over the wire.
func TestWrapFSOverClient(t *testing.T) {
	srv := testServer(t, twoTenants())
	c := pipeClient(t, srv, "alpha")
	col := obs.New()
	fs := obs.WrapFS(c, col)

	f, err := fs.Create("/w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	for op, want := range map[obs.OpClass]int64{
		obs.OpCreate: 1, obs.OpWrite: 1, obs.OpRead: 1, obs.OpFsync: 1, obs.OpMeta: 1,
	} {
		if got := s.Op(op).Count; got != want {
			t.Errorf("%s over the wire: count %d, want %d", op, got, want)
		}
	}
}

// TestWriteProm checks the exposition output: well-formed families with
// nonzero per-tenant series after load.
func TestWriteProm(t *testing.T) {
	srv := testServer(t, twoTenants())
	c := pipeClient(t, srv, "alpha")
	f, err := c.Create("/p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 2048), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Per-op accounting lands on the goroutine that wrote the reply, after the
	// reply is on the wire; shut the server down (idempotent — the cleanup
	// calls it again) so the scrape below sees all three ops.
	c.Unmount()
	srv.Close()

	var buf bytes.Buffer
	srv.WriteProm(&buf)
	out := buf.String()
	for _, family := range []string{
		"hinfs_tenant_ops_total",
		"hinfs_tenant_bytes_total",
		"hinfs_tenant_stage_ns_total",
		"hinfs_tenant_measured_ns_total",
		"hinfs_sched_queue_depth",
		"hinfs_sched_vruntime_lag_ns",
		"hinfs_sched_service_ns_total",
		"hinfs_sched_estimate_error_ns_total",
	} {
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE header for %s", family)
		}
		if !strings.Contains(out, family+"{") {
			t.Errorf("missing samples for %s", family)
		}
	}
	// The loaded tenant has nonzero ops; both tenants appear.
	if !strings.Contains(out, `hinfs_tenant_ops_total{tenant="alpha"} 3`) {
		t.Errorf("alpha ops sample wrong:\n%s", out)
	}
	if !strings.Contains(out, `hinfs_tenant_ops_total{tenant="beta"} 0`) {
		t.Errorf("beta ops sample missing:\n%s", out)
	}
	// Registered through the registry, the same bytes come out of the
	// /metrics composition path.
	reg := obs.NewRegistry()
	reg.RegisterProm("server", srv.WriteProm)
	var buf2 bytes.Buffer
	reg.WriteProm(&buf2)
	if !strings.Contains(buf2.String(), "hinfs_tenant_ops_total") {
		t.Error("registry exposition missing server metrics")
	}
}

// TestTraceNonzeroOnWire asserts the client stamps every request with a
// nonzero trace ID (the server logs it verbatim, so zero would make
// records unjoinable).
func TestTraceNonzeroOnWire(t *testing.T) {
	var log bytes.Buffer
	srv, err := New(Config{
		FS:              testFS(t),
		Tenants:         map[string]TenantConfig{"alpha": {Root: "/t/alpha", Weight: 1}},
		SlowOpThreshold: time.Nanosecond,
		SlowOpLog:       &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := pipeClient(t, srv, "alpha")
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// The slow-op record is emitted by the replying goroutine after the
	// reply; drain it before reading the log buffer.
	c.Unmount()
	srv.Close()
	var op obs.SlowOp
	if err := json.Unmarshal(log.Bytes(), &op); err != nil {
		t.Fatalf("no slow-op record: %v", err)
	}
	if op.Trace == obs.TraceString(0) {
		t.Fatal("client sent trace 0")
	}
	if op.Op != "mkdir" {
		t.Fatalf("op = %q", op.Op)
	}
}

// TestSubViewStillConfined re-checks namespace confinement with the obs
// plumbing in place: the trace context must not leak paths across
// tenants or bypass Sub.
func TestSubViewStillConfined(t *testing.T) {
	srv := testServer(t, twoTenants())
	a := pipeClient(t, srv, "alpha")
	b := pipeClient(t, srv, "beta")
	if err := a.Mkdir("/only-alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat("/only-alpha"); err != vfs.ErrNotExist {
		t.Fatalf("beta sees alpha's directory: %v", err)
	}
	if _, err := b.Stat("/../alpha/only-alpha"); err != vfs.ErrInvalid {
		t.Fatalf("path escape not rejected: %v", err)
	}
}
