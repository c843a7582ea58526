package server

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestInlineRespectsWorkers checks that Workers bounds inline runs and
// worker batches together: with one slot, synchronous clients (inline
// candidates) racing a pipelining client (worker batches) never have two
// requests executing at once.
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
	var inline int64
	for _, st := range srv.Stats() {
		inline += st.Sched.Inline
	}
	if inline == 0 {
		t.Fatal("no synchronous request ran inline")
	}
}

// TestTryInlineRefusesBehindBacklog pins the dispatch rule: a request may
// run inline only when nothing is backlogged, a slot is free and the
// scheduler is open; a refused request is left untouched, and once queued
// it is dispatched in vrt order behind the backlog like any other.
func TestTryInlineRefusesBehindBacklog(t *testing.T) {
	s := &sched{
		queues: map[string]*schedQueue{
			"a": {weight: 1},
			"b": {weight: 2},
		},
		order:   []string{"a", "b"},
		workers: 2,
	}
	s.cond = sync.NewCond(&s.mu)
	a, b := s.queues["a"], s.queues["b"]

	// Idle: the inline run is charged as an idle worker's dispatch would
	// be — cost over weight on the clock, the frontier advanced.
	r := schedTask(4000, func() {})
	if !s.tryInline("b", r) {
		t.Fatal("idle scheduler refused an inline run")
	}
	if b.vrt != 2000 || s.vtime != 2000 || s.busy != 1 || b.inline != 1 {
		t.Fatalf("after tryInline: vrt %d vtime %d busy %d inline %d, want 2000/2000/1/1",
			b.vrt, s.vtime, s.busy, b.inline)
	}
	s.runInline(r)
	if s.busy != 0 {
		t.Fatalf("busy %d after runInline, want 0", s.busy)
	}

	// Backlogged: tenant a has a request waiting, so b's request must
	// queue even though a slot is free.
	a.vrt, b.vrt = 0, 5*schedQuantum
	first := schedTask(1000, func() {})
	if err := s.enqueue("a", first); err != nil {
		t.Fatal(err)
	}
	second := schedTask(1000, func() {})
	if s.tryInline("b", second) {
		t.Fatal("tryInline ran a request past a backlog")
	}
	if b.vrt != 5*schedQuantum || b.inline != 1 || second.q != nil {
		t.Fatal("a refused tryInline changed scheduler state")
	}
	if err := s.enqueue("b", second); err != nil {
		t.Fatal(err)
	}
	if got := s.next(); got != first {
		t.Fatal("the queued request did not dispatch behind the lower-vrt backlog")
	}
	if got := s.next(); got != second {
		t.Fatal("the refused request was not dispatched next")
	}

	// No free slot, or closed: refused.
	s.busy = s.workers
	if s.tryInline("a", schedTask(1, func() {})) {
		t.Fatal("tryInline claimed a slot beyond Workers")
	}
	s.busy = 0
	s.closed = true
	if s.tryInline("a", schedTask(1, func() {})) {
		t.Fatal("tryInline ran on a closed scheduler")
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
// other — and checks they complete, carry no synchronous flag, and run
// on workers only; a synchronous client beside them runs inline, and the
// per-tenant counter reaches /metrics.
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
	st := map[string]SchedStats{}
	for _, ts := range srv.Stats() {
		st[ts.Name] = ts.Sched
	}
	if st["beta"].Inline != 0 || st["alpha"].Inline == 0 {
		t.Fatalf("inline runs: beta (batch only) %d, alpha (sync) %d; want 0 and > 0",
			st["beta"].Inline, st["alpha"].Inline)
	}
	var prom bytes.Buffer
	srv.WriteProm(&prom)
	if !strings.Contains(prom.String(), `hinfs_sched_inline_total{tenant="beta"} 0`) ||
		strings.Contains(prom.String(), `hinfs_sched_inline_total{tenant="alpha"} 0`) {
		t.Fatalf("hinfs_sched_inline_total does not match the stats:\n%s", prom.String())
	}
}

// TestServerCloseUnblocksInline closes the server while synchronous
// clients keep it busy with inline runs: Close must return and every
// client must come back with an error rather than hang.
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
		var inline int64
		for _, st := range srv.Stats() {
			inline += st.Sched.Inline
		}
		if inline > 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clients never ran inline")
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
		t.Fatal("Close with inline runs in flight did not unblock the server and its clients")
	}
}
