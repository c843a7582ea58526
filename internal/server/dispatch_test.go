package server

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

// concurrencyProbe is a blocking backend: every operation holds for a
// while and the probe records how many ran at once.
type concurrencyProbe struct {
	hold    time.Duration
	in, max atomic.Int64
}

func (p *concurrencyProbe) Begin(vfs.Op) {
	n := p.in.Add(1)
	for m := p.max.Load(); n > m && !p.max.CompareAndSwap(m, n); m = p.max.Load() {
	}
	time.Sleep(p.hold)
}

func (p *concurrencyProbe) End(vfs.Call) { p.in.Add(-1) }

// TestInlineRespectsWorkers checks that Workers bounds every dispatch:
// with one slot, synchronous clients (lone flagged frames) racing a
// pipelining client (grouped frames) never have two requests executing
// at once.
func TestInlineRespectsWorkers(t *testing.T) {
	probe := &concurrencyProbe{hold: 100 * time.Microsecond}
	srv, err := New(Config{FS: vfs.Intercept(testFS(t), probe), Tenants: twoTenants(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	var wg sync.WaitGroup
	for i, tenant := range []string{"alpha", "beta", "alpha"} {
		c := pipeClient(t, srv, tenant)
		f, err := c.Create("/s" + string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for j := 0; j < 40; j++ {
				if _, err := f.WriteAt(buf, int64(j)*512); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Stat("/"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	bc := pipeClient(t, srv, "beta")
	g, err := bc.Create("/batched")
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := bc.NewBatch()
		buf := make([]byte, 512)
		for round := 0; round < 5; round++ {
			for j := 0; j < 16; j++ {
				b.WriteAt(g, buf, int64(j)*512)
			}
			if err := b.Wait(); err != nil {
				t.Error(err)
				return
			}
			for _, o := range b.Ops() {
				if o.Err != nil {
					t.Error(o.Err)
				}
			}
			b.Reset()
		}
	}()
	wg.Wait()
	if m := probe.max.Load(); m != 1 {
		t.Fatalf("%d requests executed at once with Workers: 1", m)
	}
}

// TestTryInlineRefusesBehindBacklog pins the grant rule: a submit takes a
// slot at once only when nothing is backlogged, a slot is free and the
// scheduler is open; otherwise it parks, and parked requests are granted
// in vrt order behind the backlog.
func TestTryInlineRefusesBehindBacklog(t *testing.T) {
	s := &sched{
		queues: map[string]*schedQueue{
			"a": {weight: 1},
			"b": {weight: 2},
		},
		order:   []string{"a", "b"},
		workers: 2,
	}
	a, b := s.queues["a"], s.queues["b"]

	// Idle: the grant is immediate and pre-charged — cost over weight on
	// the clock, the frontier advanced.
	r := newSchedReq()
	r.cost = 4000
	if !s.submit("b", r) {
		t.Fatal("idle scheduler parked a request")
	}
	if b.vrt != 2000 || s.vtime != 2000 || s.busy != 1 || r.q != b {
		t.Fatalf("after the grant: vrt %d vtime %d busy %d, want 2000/2000/1", b.vrt, s.vtime, s.busy)
	}
	s.release()
	if s.busy != 0 {
		t.Fatalf("busy %d after release, want 0", s.busy)
	}

	// Backlogged: tenant a has a request parked, so b's request must park
	// too even though a slot is free, uncharged.
	a.vrt, b.vrt = 0, 5*schedQuantum
	s.busy = s.workers
	first := park(t, s, "a", 1000)
	s.busy = 0
	second := park(t, s, "b", 1000)
	if b.vrt != 5*schedQuantum || b.depth != 1 {
		t.Fatal("a parked request was charged, or not queued")
	}
	if grantedOf(t, s, first, second) != first {
		t.Fatal("the lower-vrt backlog was not granted first")
	}
	if grantedOf(t, s, first, second) != second {
		t.Fatal("the parked request was not granted next")
	}

	// No free slot: parked, not refused. Closed: every parked request and
	// every later submit is refused.
	s.busy = s.workers
	third := park(t, s, "a", 1)
	select {
	case <-third.grant:
		t.Fatal("a request was answered while every slot is held")
	default:
	}
	s.close()
	if ok := <-third.grant; ok {
		t.Fatal("close granted a parked request")
	}
	late := newSchedReq()
	if s.acquire("a", late) {
		t.Fatal("a closed scheduler granted a slot")
	}
}

// groupProbe is a blocking backend for one pipelined session and its
// persist scopes: each write holds a moment, so the frames behind it pile
// up in the session reader's buffer. It records the offsets in the order
// the writes ran, the most ops in flight at once, and the ops each scope
// held.
type groupProbe struct {
	mu       sync.Mutex
	in, max  int
	offs     []int64
	open     bool
	scopeOps []int
}

func (p *groupProbe) Begin(op vfs.Op) {
	p.mu.Lock()
	p.in++
	p.max = max(p.max, p.in)
	if p.open {
		p.scopeOps[len(p.scopeOps)-1]++
	}
	p.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
}

func (p *groupProbe) End(c vfs.Call) {
	p.mu.Lock()
	p.in--
	if c.Op == vfs.OpWrite {
		p.offs = append(p.offs, c.Off)
	}
	p.mu.Unlock()
}

func (p *groupProbe) scope() PersistScope {
	p.mu.Lock()
	p.open = true
	p.scopeOps = append(p.scopeOps, 0)
	p.mu.Unlock()
	return p
}

func (p *groupProbe) OpBoundary() {}

func (p *groupProbe) Close() {
	p.mu.Lock()
	p.open = false
	p.mu.Unlock()
}

// TestPipelinedSessionRunsInOrder pins the group rule: a pipelined
// session's frames execute in arrival order, never two at once even with
// slots to spare, and at most 8 of them share one persist scope.
func TestPipelinedSessionRunsInOrder(t *testing.T) {
	probe := &groupProbe{}
	srv, err := New(Config{
		FS:          vfs.Intercept(testFS(t), probe),
		Tenants:     twoTenants(),
		Workers:     4,
		BatchFences: probe.scope,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := pipeClient(t, srv, "alpha")
	f, err := c.Create("/ordered")
	if err != nil {
		t.Fatal(err)
	}
	b := c.NewBatch()
	const n = DefaultBatchWindow
	for i := 0; i < n; i++ {
		b.WriteAt(f, make([]byte, 512), int64(i)*512)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if probe.max != 1 {
		t.Fatalf("%d of one session's requests executed at once", probe.max)
	}
	if len(probe.offs) != n {
		t.Fatalf("%d writes ran, want %d", len(probe.offs), n)
	}
	for i, off := range probe.offs {
		if off != int64(i)*512 {
			t.Fatalf("write %d ran at offset %d: frames ran out of arrival order", i, off)
		}
	}
	grouped := 0
	for _, ops := range probe.scopeOps {
		if ops > 8 || ops < 2 {
			t.Fatalf("a persist scope held %d ops, want 2..8", ops)
		}
		grouped += ops
	}
	if grouped < n/2 {
		t.Fatalf("only %d of %d pipelined writes ran grouped (scopes %v)", grouped, n, probe.scopeOps)
	}
}

// TestBatchFencesCoalesceOnDevice runs one pipelined burst of writes
// and fsyncs over a loopback server on pmfs on a real nvmm device. With
// BatchFences wired, the dispatch scopes reach the device through each
// op's context and elide trailing fences; issued plus elided fences
// equal what the same burst issues with BatchFences nil.
func TestBatchFencesCoalesceOnDevice(t *testing.T) {
	burst := func(coalesce bool) nvmm.Stats {
		dev, err := nvmm.New(nvmm.Config{Size: 128 << 20})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := pmfs.Mkfs(dev, pmfs.Options{MaxInodes: 8192})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{FS: fs, Tenants: twoTenants(), Workers: 4}
		if coalesce {
			cfg.BatchFences = func() PersistScope { return dev.EnterFenceScope() }
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		c, err := Dial(ln.Addr().String(), "alpha")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Unmount()
		f, err := c.Create("/fenced")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		before := dev.Stats()
		b := c.NewBatch()
		for i := 0; i < 96; i++ {
			b.WriteAt(f, make([]byte, 512), int64(i)*512)
			if i%4 == 3 {
				b.Fsync(f)
			}
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
		after := dev.Stats()
		return nvmm.Stats{
			Fences:       after.Fences - before.Fences,
			FencesElided: after.FencesElided - before.FencesElided,
		}
	}
	plain, coalesced := burst(false), burst(true)
	if plain.FencesElided != 0 {
		t.Fatalf("%d fences elided with BatchFences nil", plain.FencesElided)
	}
	if coalesced.FencesElided == 0 {
		t.Fatalf("no fence elided with BatchFences wired (%d issued)", coalesced.Fences)
	}
	if got := coalesced.Fences + coalesced.FencesElided; got != plain.Fences {
		t.Fatalf("coalesced burst issued %d + elided %d = %d fences, uncoalesced issued %d",
			coalesced.Fences, coalesced.FencesElided, got, plain.Fences)
	}
}

// TestStalledBatchHoldsNoSlot checks that a session whose client stops
// reading holds no service slot: on Workers: 1, a Batch client that sends
// a burst over net.Pipe and never reaps the replies leaves its session
// writer blocked, and another tenant's synchronous client still gets the
// slot for every call.
func TestStalledBatchHoldsNoSlot(t *testing.T) {
	srv, err := New(Config{FS: testFS(t), Tenants: twoTenants(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	stalled := pipeClient(t, srv, "beta")
	f, err := stalled.Create("/stalled")
	if err != nil {
		t.Fatal(err)
	}
	b := stalled.NewBatch()
	for i := 0; i < DefaultBatchWindow; i++ {
		b.WriteAt(f, make([]byte, 512), int64(i)*512)
	}
	if err := b.Flush(); err != nil { // sent; the replies are never read
		t.Fatal(err)
	}
	c := pipeClient(t, srv, "alpha")
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := c.Stat("/"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		c.conn.Close() // unblock the call so the client's cleanup can take its lock
		t.Fatal("a stalled pipelining session starved another tenant of the slot")
	}
}

// sniffConn records every byte the server reads from the connection.
type sniffConn struct {
	net.Conn
	mu   sync.Mutex
	seen bytes.Buffer
}

func (c *sniffConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.seen.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// openUnflagged opens path on c's session with a plain (unflagged) create
// frame, as a pipelining client would send it, so a test session can hold
// a handle without ever asking for inline dispatch.
func openUnflagged(t *testing.T, c *Client, path string) vfs.File {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	trace := c.nextTrace()
	c.out.b = c.out.b[:0]
	c.out.u8(byte(vfs.OpCreate))
	c.out.u64(trace)
	c.out.str(path)
	resp, err := c.roundTripLocked()
	if err != nil {
		t.Fatal(err)
	}
	d := dec{b: resp}
	if d.u64() != trace || d.u8() != stOK {
		t.Fatal("unflagged create failed")
	}
	id := d.u32()
	if d.err != nil {
		t.Fatal(d.err)
	}
	return &remoteFile{c: c, id: id}
}

// TestBatchBurstNeverInline pipelines bursts larger than both sides'
// 64 KiB bufio buffers over net.Pipe — requests one way, replies the
// other — and checks they complete (the session reader runs them while
// the writer is blocked on the peer) and carry no synchronous flag, so
// none of their replies is written by the reader.
func TestBatchBurstNeverInline(t *testing.T) {
	srv := testServer(t, twoTenants())
	a, b := net.Pipe()
	sniff := &sniffConn{Conn: b}
	go srv.ServeConn(sniff)
	c, err := NewClient(a, "beta")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Unmount() })
	f := openUnflagged(t, c, "/burst")

	done := make(chan error, 1)
	go func() {
		b := c.NewBatch()
		const n = DefaultBatchWindow
		block := bytes.Repeat([]byte{0xa5}, 4096)
		for i := 0; i < n; i++ { // 256 KiB of requests
			b.WriteAt(f, block, int64(i)*4096)
		}
		b.Fsync(f)
		if err := b.Wait(); err != nil {
			done <- err
			return
		}
		b.Reset()
		bufs := make([][]byte, n)
		for i := range bufs { // 256 KiB of replies
			bufs[i] = make([]byte, 4096)
			b.ReadAt(f, bufs[i], int64(i)*4096)
		}
		if err := b.Wait(); err != nil {
			done <- err
			return
		}
		for i, o := range b.Ops() {
			if o.Err != nil || o.N != 4096 || !bytes.Equal(bufs[i], block) {
				t.Errorf("read %d = %d, %v", i, o.N, o.Err)
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		a.Close() // unblock the batch so the client's cleanup can take its lock
		t.Fatal("pipelined burst over net.Pipe did not complete")
	}

	sc := pipeClient(t, srv, "alpha")
	if err := sc.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	c.Unmount()
	sc.Unmount()
	srv.Close()

	br := bufio.NewReader(bytes.NewReader(sniff.seen.Bytes()))
	frames := 0
	for {
		payload, err := readFrame(br, nil)
		if err != nil {
			break
		}
		frames++
		if op := payload[0]; vfs.Op(op) != opAttach && op&opSyncFlag != 0 {
			t.Fatalf("frame %d (op %#x) is flagged synchronous", frames, op)
		}
	}
	if frames < 2*DefaultBatchWindow+3 {
		t.Fatalf("sniffed %d frames, want every request of the session", frames)
	}
}

// TestServerCloseUnblocksInline closes the server while synchronous
// clients keep every slot busy: Close must return and every client must
// come back with an error rather than hang.
func TestServerCloseUnblocksInline(t *testing.T) {
	srv := testServer(t, twoTenants())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		c, err := Dial(ln.Addr().String(), []string{"alpha", "beta"}[i%2])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Unmount()
		f, err := c.Create("/x" + string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 1024)
			for {
				if _, err := f.WriteAt(buf, 0); err != nil {
					return
				}
				if err := f.Fsync(); err != nil {
					return
				}
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var ops int64
		for _, st := range srv.Stats() {
			ops += st.Ops
		}
		if ops > 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clients never got going")
		}
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		wg.Wait()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close with dispatches in flight did not unblock the server and its clients")
	}
}
