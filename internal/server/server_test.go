package server

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

func testFS(t testing.TB) vfs.FileSystem {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pmfs.Mkfs(dev, pmfs.Options{MaxInodes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func testServer(t testing.TB, tenants map[string]TenantConfig) *Server {
	t.Helper()
	srv, err := New(Config{FS: testFS(t), Tenants: tenants, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// pipeClient connects a client to srv over an in-memory pipe.
func pipeClient(t testing.TB, srv *Server, tenant string) *Client {
	t.Helper()
	a, b := net.Pipe()
	go srv.ServeConn(b)
	c, err := NewClient(a, tenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Unmount() })
	return c
}

func twoTenants() map[string]TenantConfig {
	return map[string]TenantConfig{
		"alpha": {Root: "/tenants/alpha", Weight: 1},
		"beta":  {Root: "/tenants/beta", Weight: 1},
	}
}

func newSchedReq() *schedReq { return &schedReq{grant: make(chan bool, 1)} }

// heldSched returns a scheduler over tenants (name → weight, scanned in
// the given order) whose one service slot is already held, so every
// submit parks and grants happen only on release — the deterministic
// drive the unit tests below use, with no goroutines.
func heldSched(order []string, weights ...int64) *sched {
	s := &sched{queues: map[string]*schedQueue{}, order: order, workers: 1, busy: 1}
	for i, name := range order {
		s.queues[name] = &schedQueue{weight: weights[i]}
	}
	return s
}

// park submits a request of the given cost for tenant and checks that it
// waits for a grant.
func park(t *testing.T, s *sched, tenant string, cost int64) *schedReq {
	t.Helper()
	r := newSchedReq()
	r.cost = cost
	if s.submit(tenant, r) {
		t.Fatalf("%s took a slot that is held", tenant)
	}
	return r
}

// grantedOf releases the held slot and returns which of rs it was
// handed to, failing unless exactly one of them received a grant.
func grantedOf(t *testing.T, s *sched, rs ...*schedReq) *schedReq {
	t.Helper()
	s.release()
	var got *schedReq
	for _, r := range rs {
		select {
		case ok := <-r.grant:
			if !ok || got != nil {
				t.Fatalf("release answered more than one request, or refused one")
			}
			got = r
		default:
		}
	}
	if got == nil {
		t.Fatal("release granted none of the parked requests")
	}
	return got
}

// TestSchedulerWeights drives the slot grants deterministically and
// checks that backlogged tenants are served in weight proportion.
func TestSchedulerWeights(t *testing.T) {
	s := heldSched([]string{"big", "small"}, 3, 1)
	// Every request costs 1/16 of a quantum, so one replenish cycle
	// (weights 3+1 = 4 quanta of credit) grants exactly 64 requests.
	const reqCost = schedQuantum / 16
	tenantOf := map[*schedReq]string{}
	var parked []*schedReq
	for _, name := range s.order {
		for i := 0; i < 64; i++ {
			r := park(t, s, name, reqCost)
			tenantOf[r] = name
			parked = append(parked, r)
		}
	}
	// Grant exactly one replenish cycle's worth of requests. Nothing
	// settles, so the pre-charged estimates are the whole accounting.
	served := map[string]int{}
	for i := 0; i < 64; i++ {
		served[tenantOf[grantedOf(t, s, parked...)]]++
	}
	if served["big"] != 48 || served["small"] != 16 {
		t.Fatalf("served big=%d small=%d, want 48 and 16",
			served["big"], served["small"])
	}
}

// TestSchedulerBatchDrain checks that a dispatch group is charged as one
// grant: a session running a group of 8 pipelined frames is pre-charged
// their summed estimates, so its tenant then waits while a tenant of
// single-frame dispatches catches up.
func TestSchedulerBatchDrain(t *testing.T) {
	s := heldSched([]string{"a", "b"}, 1, 1)
	a, b := s.queues["a"], s.queues["b"]
	var groups, singles []*schedReq
	for i := 0; i < 2; i++ {
		groups = append(groups, park(t, s, "a", 8*schedQuantum))
	}
	for i := 0; i < 12; i++ {
		singles = append(singles, park(t, s, "b", schedQuantum))
	}
	all := append(append([]*schedReq{}, groups...), singles...)
	if got := grantedOf(t, s, all...); got != groups[0] {
		t.Fatal("the first grant did not go to the first group (tie: order position)")
	}
	if a.vrt != 8*schedQuantum || a.servedNS != 8*schedQuantum {
		t.Fatalf("group pre-charged vrt %d served %d, want %d", a.vrt, a.servedNS, 8*schedQuantum)
	}
	// b trails by 8 quanta: its next 8 dispatches go first, in FIFO
	// order, and then the tie at 8 quanta goes back to a.
	for i := 0; i < 8; i++ {
		if got := grantedOf(t, s, all...); got != singles[i] {
			t.Fatalf("grant %d did not go to b's dispatch %d", i+2, i)
		}
	}
	if b.vrt != 8*schedQuantum || grantedOf(t, s, all...) != groups[1] {
		t.Fatalf("b at vrt %d: the tie did not go back to a's second group", b.vrt)
	}
	if a.depth != 0 || b.depth != 4 {
		t.Fatalf("queue depths a=%d b=%d, want 0 and 4", a.depth, b.depth)
	}
}

// TestSchedulerByteCost checks that the cost estimate scales with I/O
// size, so a tenant of large writes cannot monopolize via op count.
func TestSchedulerByteCost(t *testing.T) {
	if c := opCost(0); c != 1000 {
		t.Fatalf("opCost(0) = %d", c)
	}
	if c := opCost(64 << 10); c != 17000 {
		t.Fatalf("opCost(64K) = %d", c)
	}
}

// TestSchedulerSettle checks that measured service time is charged back
// at weight rate: a request whose true cost exceeded its estimate
// advances its tenant's virtual clock past the frontier, deferring its
// next service until rivals catch up.
func TestSchedulerSettle(t *testing.T) {
	s := heldSched([]string{"heavy", "light"}, 2, 1)
	heavy := s.queues["heavy"]
	// heavy ran 4 quanta over its estimate: its clock advances by the
	// overrun divided by its weight.
	s.settle(heavy, 4*schedQuantum)
	if heavy.vrt != 2*schedQuantum {
		t.Fatalf("heavy vrt after settle = %d, want %d", heavy.vrt, 2*schedQuantum)
	}
	// With both backlogged, the tenant that has consumed less weighted
	// service is granted first regardless of arrival order.
	h := park(t, s, "heavy", 1)
	l := park(t, s, "light", 1)
	if grantedOf(t, s, h, l) != l {
		t.Fatal("scheduler granted the overdrawn tenant before the lagging one")
	}
}

// TestSchedulerLagClamp checks the bounded-memory rule: a tenant
// re-entering from idle keeps at most lagWindow of unused entitlement.
func TestSchedulerLagClamp(t *testing.T) {
	s := heldSched([]string{"t"}, 1)
	s.vtime = 100 * schedQuantum // frontier advanced while t was idle
	park(t, s, "t", 1)
	if got, want := s.queues["t"].vrt, 100*schedQuantum-lagWindow; got != want {
		t.Fatalf("idle tenant vrt clamped to %d, want %d", got, want)
	}
}

func TestErrorCodesRoundTrip(t *testing.T) {
	for _, m := range errToCode {
		code := codeFor(m.err)
		if code != m.code {
			t.Errorf("codeFor(%v) = %d, want %d", m.err, code, m.code)
		}
		if got := errFor(code, ""); got != m.err {
			t.Errorf("errFor(%d) = %v, want %v", code, got, m.err)
		}
	}
	if code := codeFor(fmt.Errorf("novel")); code != stOther {
		t.Errorf("unknown error code = %d", code)
	}
}

func TestServerBasicOps(t *testing.T) {
	srv := testServer(t, twoTenants())
	c := pipeClient(t, srv, "alpha")

	f, err := c.Create("/hello")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt([]byte("remote bytes"), 0); err != nil || n != 12 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 12 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 32)
	n, err := f.ReadAt(buf, 0)
	if err != io.EOF || n != 12 {
		t.Fatalf("short read = %d, %v; want 12, io.EOF", n, err)
	}
	if string(buf[:n]) != "remote bytes" {
		t.Fatalf("read %q", buf[:n])
	}
	if n, err := f.ReadAt(buf[:4], 2); err != nil || n != 4 || string(buf[:4]) != "mote" {
		t.Fatalf("offset read = %d, %v, %q", n, err, buf[:4])
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read past EOF = %v", err)
	}
	if err := f.Truncate(6); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 6 {
		t.Fatalf("size after truncate = %d", f.Size())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != vfs.ErrClosed {
		t.Fatalf("double close = %v", err)
	}
	if _, err := f.ReadAt(buf, 0); err != vfs.ErrClosed {
		t.Fatalf("read after close = %v", err)
	}

	// Namespace ops and error identity across the wire.
	if _, err := c.Open("/missing", vfs.ORdonly); err != vfs.ErrNotExist {
		t.Fatalf("open missing = %v, want vfs.ErrNotExist", err)
	}
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d"); err != vfs.ErrExist {
		t.Fatalf("mkdir dup = %v", err)
	}
	if err := c.Rename("/hello", "/d/hi"); err != nil {
		t.Fatal(err)
	}
	fi, err := c.Stat("/d/hi")
	if err != nil || fi.Size != 6 || fi.IsDir {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
	ents, err := c.ReadDir("/")
	if err != nil || len(ents) != 1 || ents[0].Name != "d" || !ents[0].IsDir {
		t.Fatalf("readdir = %v, %v", ents, err)
	}
	if err := c.Rmdir("/d"); err != vfs.ErrNotEmpty {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	if err := c.Unlink("/d/hi"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantIsolation plants data as one tenant and verifies another
// tenant can neither see nor reach it, by listing, by path, or by any
// traversal shape.
func TestTenantIsolation(t *testing.T) {
	srv := testServer(t, twoTenants())
	ca := pipeClient(t, srv, "alpha")
	cb := pipeClient(t, srv, "beta")

	f, err := ca.Create("/secret")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("alpha-only"), 0)
	f.Close()

	if _, err := cb.Stat("/secret"); err != vfs.ErrNotExist {
		t.Fatalf("beta stats alpha's file: %v", err)
	}
	ents, err := cb.ReadDir("/")
	if err != nil || len(ents) != 0 {
		t.Fatalf("beta sees %v, %v", ents, err)
	}
	for _, p := range []string{
		"/../alpha/secret",
		"/../../tenants/alpha/secret",
		"..",
		"/..",
		"/a/../../alpha/secret",
		"/\x00",
	} {
		if _, err := cb.Open(p, vfs.ORdonly); err != vfs.ErrInvalid {
			t.Errorf("escape Open(%q) = %v, want ErrInvalid", p, err)
		}
		if _, err := cb.Stat(p); err != vfs.ErrInvalid {
			t.Errorf("escape Stat(%q) = %v, want ErrInvalid", p, err)
		}
	}
	// Same name in beta's namespace is a different file.
	g, err := cb.Create("/secret")
	if err != nil {
		t.Fatal(err)
	}
	g.WriteAt([]byte("beta"), 0)
	g.Close()
	h, err := ca.Open("/secret", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 10)
	if n, err := h.ReadAt(buf, 0); (err != nil && err != io.EOF) || string(buf[:n]) != "alpha-only" {
		t.Fatalf("alpha's file changed: %q, %v", buf[:n], err)
	}
}

// TestSessionRequiresAttach checks the protocol rejects ops without an
// Attach and unknown tenants at Attach.
func TestSessionRequiresAttach(t *testing.T) {
	srv := testServer(t, twoTenants())
	a, b := net.Pipe()
	go srv.ServeConn(b)
	if _, err := NewClient(a, "nobody"); err != ErrUnknownTenant {
		t.Fatalf("attach unknown tenant = %v", err)
	}
}

func TestQuota(t *testing.T) {
	srv := testServer(t, map[string]TenantConfig{
		"q": {Root: "/q", QuotaBytes: 64 << 10},
	})
	c := pipeClient(t, srv, "q")
	f, err := c.Create("/data")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 32<<10), 0); err != nil {
		t.Fatalf("write under quota: %v", err)
	}
	if _, err := f.WriteAt(make([]byte, 64<<10), 32<<10); err != ErrQuota {
		t.Fatalf("write over quota = %v, want ErrQuota", err)
	}
	// Overwrites within the existing size are free.
	if _, err := f.WriteAt(make([]byte, 16<<10), 0); err != nil {
		t.Fatalf("overwrite = %v", err)
	}
	// Truncate growth is charged, shrink refunds.
	if err := f.Truncate(96 << 10); err != ErrQuota {
		t.Fatalf("truncate over quota = %v", err)
	}
	if err := f.Truncate(4 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 48<<10), 0); err != nil {
		t.Fatalf("write after shrink = %v", err)
	}
	// Unlink refunds the file's bytes.
	if err := c.Unlink("/data"); err != nil {
		t.Fatal(err)
	}
	g, err := c.Create("/data2")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.WriteAt(make([]byte, 60<<10), 0); err != nil {
		t.Fatalf("write after unlink refund = %v", err)
	}
	st := srv.Stats()
	if len(st) != 1 || st[0].QuotaRejects < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestManyClients is the acceptance load: over a real TCP loopback
// listener, 1000+ concurrent clients across two tenants each write a
// uniquely tagged file, read it back, and check namespace isolation.
func TestManyClients(t *testing.T) {
	srv := testServer(t, twoTenants())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	const perTenant = 512 // 1024 concurrent sessions total
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	for _, tenant := range []string{"alpha", "beta"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, i int) {
				defer wg.Done()
				fail := func(format string, args ...any) {
					errs <- fmt.Errorf("%s/%d: %s", tenant, i, fmt.Sprintf(format, args...))
				}
				c, err := Dial(addr, tenant)
				if err != nil {
					fail("dial: %v", err)
					return
				}
				defer c.Unmount()
				path := fmt.Sprintf("/u%d", i)
				tag := fmt.Sprintf("%s:%d", tenant, i)
				f, err := c.Create(path)
				if err != nil {
					fail("create: %v", err)
					return
				}
				if _, err := f.WriteAt([]byte(tag), 0); err != nil {
					fail("write: %v", err)
					return
				}
				buf := make([]byte, len(tag))
				if n, err := f.ReadAt(buf, 0); err != nil && err != io.EOF || n != len(tag) {
					fail("read: %d, %v", n, err)
					return
				}
				if string(buf) != tag {
					fail("cross-tenant or cross-client leak: got %q want %q", buf, tag)
					return
				}
				if err := f.Close(); err != nil {
					fail("close: %v", err)
					return
				}
				// The other tenant's namespace must not contain this file —
				// checked via a traversal attempt, which must be rejected.
				if _, err := c.Stat("/../" + map[string]string{"alpha": "beta", "beta": "alpha"}[tenant] + path); err != vfs.ErrInvalid {
					fail("escape stat = %v", err)
				}
			}(tenant, i)
		}
	}
	wg.Wait()
	close(errs)
	bad := 0
	for err := range errs {
		t.Error(err)
		if bad++; bad > 10 {
			t.Fatal("too many failures")
		}
	}
	// Every client's file landed in its tenant's subtree.
	st := srv.Stats()
	if len(st) != 2 {
		t.Fatalf("stats: %+v", st)
	}
	for _, ts := range st {
		if ts.Ops == 0 || ts.BytesWritten == 0 {
			t.Fatalf("tenant %s recorded no work: %+v", ts.Name, ts)
		}
	}
}

// TestServerClosePendingSessions checks shutdown with live sessions:
// Close unblocks everything and no goroutine deadlocks.
func TestServerCloseUnblocks(t *testing.T) {
	srv := testServer(t, twoTenants())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	c, err := Dial(ln.Addr().String(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	// The client's next op fails cleanly rather than hanging.
	if _, err := c.Stat("/x"); err == nil {
		t.Fatal("op on closed server succeeded")
	}
}
