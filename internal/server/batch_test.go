package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"hinfs/internal/vfs"
)

// TestBatchRoundTrip pipelines a mixed write/fsync/read burst through
// one connection and checks every op's result individually.
func TestBatchRoundTrip(t *testing.T) {
	srv := testServer(t, twoTenants())
	c := pipeClient(t, srv, "alpha")
	f, err := c.Create("/b")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	b := c.NewBatch()
	const n = 48
	writes := make([]*BatchOp, n)
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("chunk-%02d!", i))
		writes[i] = b.WriteAt(f, data, int64(i*10))
	}
	sync := b.Fsync(f)
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, w := range writes {
		if w.Err != nil || w.N != 9 {
			t.Fatalf("write %d = %d, %v", i, w.N, w.Err)
		}
	}
	if sync.Err != nil {
		t.Fatalf("fsync: %v", sync.Err)
	}
	if d := b.AchievedDepth(); d <= 1 {
		t.Fatalf("achieved depth %.2f, want > 1 for a pipelined burst", d)
	}

	b.Reset()
	bufs := make([][]byte, n)
	reads := make([]*BatchOp, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 9)
		reads[i] = b.ReadAt(f, bufs[i], int64(i*10))
	}
	// One read past EOF rides in the same batch.
	tail := b.ReadAt(f, make([]byte, 16), int64(n*10))
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		want := fmt.Sprintf("chunk-%02d!", i)
		if r.Err != nil && !(i == n-1 && r.Err == io.EOF) {
			t.Fatalf("read %d: %v", i, r.Err)
		}
		if r.N != 9 || string(bufs[i]) != want {
			t.Fatalf("read %d = %d %q, want %q", i, r.N, bufs[i], want)
		}
	}
	if tail.Err != io.EOF || tail.N != 0 {
		t.Fatalf("past-EOF read = %d, %v", tail.N, tail.Err)
	}
}

// TestBatchWindowOne checks the degenerate synchronous window still
// completes everything (it is the baseline the batch figure sweeps from).
func TestBatchWindowOne(t *testing.T) {
	srv := testServer(t, twoTenants())
	c := pipeClient(t, srv, "alpha")
	f, err := c.Create("/w1")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := c.NewBatch()
	b.SetWindow(1)
	for i := 0; i < 8; i++ {
		b.WriteAt(f, []byte{byte(i)}, int64(i))
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if d := b.AchievedDepth(); d != 1 {
		t.Fatalf("achieved depth %.2f at window 1, want exactly 1", d)
	}
	got := make([]byte, 8)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("read back %v", got)
	}
}

// TestBatchValidation checks that ill-formed ops fail locally without
// touching the wire, and that the rest of the batch still completes.
func TestBatchValidation(t *testing.T) {
	srv := testServer(t, twoTenants())
	c := pipeClient(t, srv, "alpha")
	c2 := pipeClient(t, srv, "beta")
	f, err := c.Create("/v")
	if err != nil {
		t.Fatal(err)
	}
	g, err := c2.Create("/other")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	b := c.NewBatch()
	foreign := b.WriteAt(g, []byte("x"), 0) // other client's handle
	huge := b.ReadAt(f, make([]byte, MaxIO+1), 0)
	ok := b.WriteAt(f, []byte("fine"), 0)
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if foreign.Err != vfs.ErrInvalid {
		t.Fatalf("foreign handle = %v, want ErrInvalid", foreign.Err)
	}
	if huge.Err != vfs.ErrInvalid {
		t.Fatalf("oversized read = %v, want ErrInvalid", huge.Err)
	}
	if ok.Err != nil || ok.N != 4 {
		t.Fatalf("valid op in mixed batch = %d, %v", ok.N, ok.Err)
	}

	f.Close()
	b.Reset()
	closed := b.Fsync(f)
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if closed.Err != vfs.ErrClosed {
		t.Fatalf("closed handle = %v, want ErrClosed", closed.Err)
	}
}

// TestBatchInterleavesWithSyncCalls checks a batch and the synchronous
// client path share one connection safely: the sync path's strict echo
// check must never see a batch op's reply.
func TestBatchInterleavesWithSyncCalls(t *testing.T) {
	srv := testServer(t, twoTenants())
	c := pipeClient(t, srv, "alpha")
	f, err := c.Create("/mix")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := c.NewBatch()
	for round := 0; round < 20; round++ {
		for i := 0; i < 16; i++ {
			b.WriteAt(f, []byte("data"), int64(i*4))
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, o := range b.ops {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
		b.Reset()
		if _, err := c.Stat("/mix"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchTorture races batched submissions on many connections
// against server shutdown. The invariant under test: every queued op
// ends done with either a result or an error — exactly one completion,
// matched by trace — and nothing hangs or panics, under -race.
func TestBatchTorture(t *testing.T) {
	srv := testServer(t, twoTenants())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	const clients = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			tenant := []string{"alpha", "beta"}[i%2]
			c, err := Dial(addr, tenant)
			if err != nil {
				return // server may already be closing
			}
			defer c.Unmount()
			f, err := c.Create(fmt.Sprintf("/t%d", i))
			if err != nil {
				return
			}
			b := c.NewBatch()
			b.SetWindow(1 + rng.Intn(DefaultBatchWindow))
			buf := make([]byte, 512)
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				nops := 1 + rng.Intn(40)
				for j := 0; j < nops; j++ {
					switch rng.Intn(3) {
					case 0:
						b.WriteAt(f, buf[:1+rng.Intn(512)], int64(rng.Intn(1<<16)))
					case 1:
						b.ReadAt(f, buf[:1+rng.Intn(512)], int64(rng.Intn(1<<16)))
					default:
						b.Fsync(f)
					}
				}
				err := b.Wait()
				for k, o := range b.ops {
					if !o.done {
						t.Errorf("client %d round %d: op %d not completed after Wait", i, round, k)
						return
					}
				}
				if err != nil {
					return // transport failed: all ops completed with the error
				}
				b.Reset()
			}
		}(i)
	}
	time.Sleep(150 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestClientEncodeZeroAllocs pins the client submission path's
// allocation budget: encoding and framing one write request reuses the
// connection buffers and allocates nothing.
func TestClientEncodeZeroAllocs(t *testing.T) {
	var e enc
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	payload := make([]byte, 4096)
	n := testing.AllocsPerRun(1000, func() {
		e.b = e.b[:0]
		e.u8(byte(vfs.OpWrite))
		e.u64(0x1234)
		e.u32(7)
		e.u64(8192)
		e.bytes(payload)
		if err := writeFrame(bw, e.b); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("frame encode allocates %.1f objects/op, want 0", n)
	}
}

// TestSchedDispatchZeroAllocs pins the scheduler's steady-state budget:
// an immediate grant, a parked request handed the slot by release, and
// settle allocate nothing — the queue links are intrusive and the
// envelopes are session-owned.
func TestSchedDispatchZeroAllocs(t *testing.T) {
	s := &sched{
		queues:  map[string]*schedQueue{"t": {weight: 1}},
		order:   []string{"t"},
		workers: 1,
	}
	r, w := newSchedReq(), newSchedReq()
	r.cost, w.cost = 1000, 1000
	n := testing.AllocsPerRun(1000, func() {
		if !s.acquire("t", r) {
			t.Fatal("idle scheduler refused a grant")
		}
		if s.submit("t", w) {
			t.Fatal("a held slot was granted twice")
		}
		s.settle(r.q, 50)
		s.release() // hands the slot to w
		if !<-w.grant {
			t.Fatal("release did not grant the parked request")
		}
		s.release()
	})
	if n != 0 {
		t.Fatalf("grant cycle allocates %.1f objects/op, want 0", n)
	}
}

// TestServerReadWriteSteadyStateAllocs pins the synchronous round trip at
// zero heap allocations per op, end to end over TCP loopback: client
// encode and decode, the server's reader, the dispatch, pmfs and the
// reply. AllocsPerRun counts the whole process, so both sides are
// covered.
func TestServerReadWriteSteadyStateAllocs(t *testing.T) {
	srv := testServer(t, twoTenants())
	if n := syncRPCAllocs(t, srv); n != 0 {
		t.Fatalf("synchronous ReadAt+WriteAt+Fsync allocates %.1f objects, want 0", n)
	}
}

// TestBatchBurstZeroAllocs pins a pipelined burst — 16 writes, 16 reads
// and an fsync of 512 B each, one Batch over TCP loopback — at zero heap
// allocations: grouped dispatch, persist scope, the writer's replies and
// the client's reaping all reuse what the first bursts allocated.
func TestBatchBurstZeroAllocs(t *testing.T) {
	c := loopbackClient(t, testServer(t, twoTenants()))
	f, err := c.Create("/burst")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	wbuf, rbuf := make([]byte, 512), make([]byte, 512)
	b := c.NewBatch()
	burst := func() {
		for i := 0; i < 16; i++ {
			b.WriteAt(f, wbuf, int64(i)*512)
			b.ReadAt(f, rbuf, int64(i)*512)
		}
		b.Fsync(f)
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, o := range b.Ops() {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
		b.Reset()
	}
	for i := 0; i < 50; i++ {
		burst()
	}
	if n := testing.AllocsPerRun(200, burst); n != 0 {
		t.Fatalf("a 33-op Batch burst allocates %.1f objects, want 0", n)
	}
}

// TestServedStatAllocs bounds a synchronous Stat over TCP loopback at
// three allocations: the path string the server decodes, the tenant view
// re-anchoring it under its root, and the name the client decodes. The
// path is split into stack arrays (vfs.SplitPath) on the way down.
func TestServedStatAllocs(t *testing.T) {
	c := loopbackClient(t, testServer(t, twoTenants()))
	if err := c.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("/dir/file")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	stat := func() {
		if fi, err := c.Stat("/dir/file"); err != nil || fi.Name != "file" {
			t.Fatalf("stat = %+v, %v", fi, err)
		}
	}
	for i := 0; i < 100; i++ {
		stat()
	}
	if n := testing.AllocsPerRun(500, stat); n > 3 {
		t.Fatalf("a served Stat allocates %.1f objects, want at most 3", n)
	}
}

// loopbackClient serves srv on a TCP loopback listener and returns a
// client attached as alpha. Allocation tests use it: they skip under the
// race detector, which drops sync.Pool items at random.
func loopbackClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := Dial(ln.Addr().String(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Unmount() })
	return c
}

// syncRPCAllocs measures the heap allocations of one synchronous ReadAt,
// WriteAt and Fsync of a 4 KiB block on a TCP client of srv, after
// warming the pools on both sides.
func syncRPCAllocs(t *testing.T, srv *Server) float64 {
	t.Helper()
	c := loopbackClient(t, srv)
	f, err := c.Create("/hot")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	buf := make([]byte, 4096)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	rpc := func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Fsync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		rpc()
	}
	return testing.AllocsPerRun(500, rpc)
}
