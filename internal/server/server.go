package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/obs/flight"
	"hinfs/internal/vfs"
)

// Config assembles a server.
type Config struct {
	// FS is the backing file system. The server is the only writer the
	// tenants reach; it may be any vfs.FileSystem (HiNFS or a baseline).
	FS vfs.FileSystem
	// Tenants declares the tenant set. Roots are created if missing.
	Tenants map[string]TenantConfig
	// Workers bounds concurrent dispatches (default 8): the number of
	// service slots the fair scheduler grants to session readers.
	Workers int
	// SlowOpThreshold triggers the structured slow-op log: any op whose
	// admission-to-completion latency reaches it is written to SlowOpLog
	// as one JSON line with trace ID, tenant, op and the full per-stage
	// breakdown. 0 disables the log.
	SlowOpThreshold time.Duration
	// SlowOpLog receives the slow-op JSON lines (default os.Stderr when
	// SlowOpThreshold is set).
	SlowOpLog io.Writer
	// BatchFences, when set, opens a persist scope around every multi-op
	// dispatch so its trailing device fences coalesce into one ordering
	// point (wire it to nvmm's Device.EnterFenceScope). Replies are
	// released only after the scope closes.
	BatchFences func() PersistScope
	// Flight, when set, receives one persisted record per dispatched
	// request: trace, tenant, op, ino, offset, length, stage breakdown
	// and result code, NT-stored into the NVMM flight ring with no fence
	// (internal/obs/flight). Wire it to the backing FS's Flight()
	// recorder; nil disables recording.
	Flight *flight.Recorder
}

const (
	// sessionWindow bounds in-flight (pipelined) requests per session. A
	// client exceeding it is simply not read from until replies drain —
	// backpressure, not an error.
	sessionWindow = 256
	// maxGroup bounds how many pipelined frames of one session run under
	// one slot grant and one persist scope. The whole group's service time
	// is charged to the tenant, so grouping coarsens the fairness grain
	// without changing the ratios.
	maxGroup = 8
)

// Server multiplexes framed-RPC sessions from many clients onto one
// backing file system, with per-tenant namespace confinement, quota
// accounting and weighted fair scheduling.
type Server struct {
	fs      vfs.FileSystem
	tenants map[string]*tenant
	order   []string
	sched   *sched
	slow    *obs.SlowLog
	flight  *flight.Recorder

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// New validates the tenant set, creates missing roots, and sets up the
// scheduler. The caller owns fs; Server.Close does not unmount it.
func New(cfg Config) (*Server, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("server: no backing file system")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("server: no tenants configured")
	}
	s := &Server{
		fs:      cfg.FS,
		tenants: make(map[string]*tenant),
		conns:   make(map[net.Conn]struct{}),
		flight:  cfg.Flight,
	}
	if cfg.SlowOpThreshold > 0 {
		w := cfg.SlowOpLog
		if w == nil {
			w = os.Stderr
		}
		s.slow = obs.NewSlowLog(w, cfg.SlowOpThreshold)
	}
	for name := range cfg.Tenants {
		s.order = append(s.order, name)
	}
	sort.Strings(s.order)
	weights := make(map[string]int64)
	for _, name := range s.order {
		tc := cfg.Tenants[name]
		if tc.Weight <= 0 {
			tc.Weight = 1
		}
		if err := mkdirAll(cfg.FS, tc.Root); err != nil {
			return nil, fmt.Errorf("server: tenant %s root %q: %w", name, tc.Root, err)
		}
		view, err := vfs.Sub(cfg.FS, tc.Root)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", name, err)
		}
		t := &tenant{name: name, view: view, cfg: tc}
		for i := range t.win {
			t.win[i] = obs.NewWindows(obs.DefaultWindow, obs.DefaultWindowCount)
		}
		s.tenants[name] = t
		weights[name] = int64(tc.Weight)
	}
	s.sched = newSched(weights, s.order, cfg.Workers, cfg.BatchFences)
	return s, nil
}

// mkdirAll creates path and its ancestors on fs.
func mkdirAll(fs vfs.FileSystem, path string) error {
	parts, err := vfs.SplitPath(nil, path)
	if err != nil {
		return err
	}
	for i := 1; i <= len(parts); i++ {
		if err := fs.Mkdir(vfs.JoinPath(parts[:i])); err != nil && err != vfs.ErrExist {
			return err
		}
	}
	return nil
}

// Serve accepts sessions on ln until the listener fails or the server is
// closed. It is the caller's accept loop; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return vfs.ErrUnmounted
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// ServeConn runs one session on an existing connection (net.Pipe in
// tests, pre-accepted sockets) and blocks until it ends.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.serveConn(conn)
}

// Close stops accepting, closes the scheduler and tears down every
// session. The scheduler closes before the sessions are waited on, so a
// session parked for a slot is refused (ErrUnmounted) rather than waited
// for. The backing file system is left mounted.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.sched.close()
	s.wg.Wait()
	return nil
}

// Stats snapshots every tenant, in name order.
func (s *Server) Stats() []TenantStats {
	sched := s.sched.stats()
	out := make([]TenantStats, 0, len(s.order))
	for _, name := range s.order {
		ts := s.tenants[name].stats()
		ts.Sched = sched[name]
		ts.ServiceNS = ts.Sched.ServiceNS
		out = append(out, ts)
	}
	return out
}

// SlowOpsLogged reports how many slow-op records the server has written.
func (s *Server) SlowOpsLogged() int64 { return s.slow.Logged() }

// WriteProm writes the server's tenant and scheduler metrics in the
// Prometheus text exposition format: per-tenant op/byte/quota counters,
// per-stage attributed time, recent-window latency quantiles per op
// class, and scheduler internals (queue depth, vruntime lag, estimate
// error). Register it on a debug server with
// obs.Default.RegisterProm("server", srv.WriteProm).
func (s *Server) WriteProm(w io.Writer) {
	p := obs.NewPromWriter(w)
	stats := s.Stats()

	p.Header("hinfs_tenant_ops_total", "Completed operations per tenant.", "counter")
	for i := range stats {
		p.Metric("hinfs_tenant_ops_total", float64(stats[i].Ops), "tenant", stats[i].Name)
	}
	p.Header("hinfs_tenant_bytes_total", "Bytes moved per tenant and direction.", "counter")
	for i := range stats {
		p.Metric("hinfs_tenant_bytes_total", float64(stats[i].BytesRead), "tenant", stats[i].Name, "dir", "read")
		p.Metric("hinfs_tenant_bytes_total", float64(stats[i].BytesWritten), "tenant", stats[i].Name, "dir", "write")
	}
	p.Header("hinfs_tenant_used_bytes", "Approximate logical bytes in use per tenant.", "gauge")
	for i := range stats {
		p.Metric("hinfs_tenant_used_bytes", float64(stats[i].UsedBytes), "tenant", stats[i].Name)
	}
	p.Header("hinfs_tenant_quota_rejects_total", "Operations rejected by the byte quota.", "counter")
	for i := range stats {
		p.Metric("hinfs_tenant_quota_rejects_total", float64(stats[i].QuotaRejects), "tenant", stats[i].Name)
	}
	p.Header("hinfs_tenant_stage_ns_total", "Measured latency attributed to each stage, per tenant.", "counter")
	for i := range stats {
		for _, st := range obs.Stages() {
			p.Metric("hinfs_tenant_stage_ns_total", float64(stats[i].StageNS[st.String()]),
				"tenant", stats[i].Name, "stage", st.String())
		}
	}
	p.Header("hinfs_tenant_measured_ns_total", "Cumulative admission-to-completion latency per tenant.", "counter")
	for i := range stats {
		p.Metric("hinfs_tenant_measured_ns_total", float64(stats[i].MeasuredNS()), "tenant", stats[i].Name)
	}
	p.Header("hinfs_tenant_window_latency_ns", "Latency quantiles over the recent metric windows, per tenant and op class.", "gauge")
	for i := range stats {
		for class, h := range stats[i].WindowLat {
			if h.Count == 0 {
				continue
			}
			for _, q := range []struct {
				v float64
				s string
			}{{0.5, "0.5"}, {0.99, "0.99"}, {0.999, "0.999"}} {
				p.Metric("hinfs_tenant_window_latency_ns", float64(h.Quantile(q.v)),
					"tenant", stats[i].Name, "class", class, "quantile", q.s)
			}
		}
	}
	p.Header("hinfs_sched_queue_depth", "Dispatches waiting for a service slot per tenant.", "gauge")
	for i := range stats {
		p.Metric("hinfs_sched_queue_depth", float64(stats[i].Sched.QueueDepth), "tenant", stats[i].Name)
	}
	p.Header("hinfs_sched_vruntime_lag_ns", "How far the tenant's virtual clock trails the service frontier.", "gauge")
	for i := range stats {
		p.Metric("hinfs_sched_vruntime_lag_ns", float64(stats[i].Sched.VruntimeLagNS), "tenant", stats[i].Name)
	}
	p.Header("hinfs_sched_service_ns_total", "Measured service time consumed per tenant.", "counter")
	for i := range stats {
		p.Metric("hinfs_sched_service_ns_total", float64(stats[i].Sched.ServiceNS), "tenant", stats[i].Name)
	}
	p.Header("hinfs_sched_estimate_error_ns_total", "Cumulative |measured-estimated| service time per tenant.", "counter")
	for i := range stats {
		p.Metric("hinfs_sched_estimate_error_ns_total", float64(stats[i].Sched.EstErrNS), "tenant", stats[i].Name)
	}
	p.Header("hinfs_slow_ops_total", "Slow-op log records written by the server.", "counter")
	p.Metric("hinfs_slow_ops_total", float64(s.slow.Logged()))
	p.Header("hinfs_window_coverage_ns", "Age of the oldest retained metrics window — the span the recent-window quantiles actually cover.", "gauge")
	now := time.Now().UnixNano()
	var cov int64
	for _, name := range s.order {
		for _, win := range s.tenants[name].win {
			if o, ok := win.Oldest(); ok {
				if age := now - o; age > cov {
					cov = age
				}
			}
		}
	}
	p.Metric("hinfs_window_coverage_ns", float64(cov))
	if s.flight != nil {
		p.Header("hinfs_flight_seq", "Highest flight-recorder sequence number issued.", "counter")
		p.Metric("hinfs_flight_seq", float64(s.flight.Seq()))
		p.Header("hinfs_flight_slots", "Flight ring capacity in records.", "gauge")
		p.Metric("hinfs_flight_slots", float64(s.flight.Slots()))
	}
}

// --- session ---

// handle is one open file in a session's handle table. ino is resolved
// once at registration (vfs.InodeNumberer probe) so stamping it into
// flight records costs nothing per I/O; 0 when the backend has no
// stable inode numbers.
type handle struct {
	f     vfs.File
	flags int
	ino   uint64
}

// session is one connection's server-side state. Its reader goroutine
// (serveConn) decodes frames and runs them itself, one dispatch at a
// time in arrival order, each under a service slot granted by the fair
// scheduler. A lone synchronous frame (opSyncFlag) is answered by the
// reader; every other reply goes to the writer goroutine, which
// serializes replies onto the wire. The window (slots) bounds in-flight
// requests per session, so one pipelining client cannot pile up
// unbounded replies.
type session struct {
	srv  *Server
	conn net.Conn
	ten  *tenant

	// The handle table is the reader goroutine's alone: every request
	// runs there, and closeAll runs after the reader's loop.
	handles map[uint32]handle
	nextID  uint32

	// sr is the session's seat at the scheduler: one dispatch is in
	// flight at a time.
	sr schedReq

	// completions carries finished requests to the writer goroutine;
	// slots is the window semaphore (send = acquire, receive = release).
	// Both are sized to the window, so a completion send never blocks:
	// every in-flight request holds exactly one slot.
	completions chan *request
	slots       chan struct{}

	// wmu serializes the two goroutines that write replies: the writer and
	// the reader answering a synchronous request. It guards bw and dead;
	// dead is set on a wire error, after which replies are dropped and
	// only their accounting runs.
	wmu  sync.Mutex
	bw   *bufio.Writer
	dead bool
}

// request is the pooled per-request envelope: decoded arguments, the
// response buffer and the observability context. One pool object cycles
// reader → writer → pool (or reader → pool, answered by the reader) with
// zero steady-state allocations.
type request struct {
	sess *session

	op    vfs.Op
	trace uint64
	// flagged is the client's opSyncFlag promise: it sends nothing more
	// until it has read this reply.
	flagged bool
	cost    int64 // estimated service nanoseconds (opCost)
	// start is admission; done is when the reply was ready, stamped
	// before it is handed to the writer or written by the reader. done −
	// start is the server-side latency every record of the op reports.
	start, done time.Time
	ran         bool

	// Decoded arguments (per-op subset).
	id    uint32
	flags int
	n     int
	off   int64
	size  int64
	ino   uint64 // resolved handle inode, for the flight record
	moved int    // bytes the op read or wrote, for the flight record
	path  string
	path2 string
	data  []byte // aliases buf; valid until the request is pooled

	buf   []byte // reusable frame receive buffer
	out   enc    // reusable response buffer
	opctx obs.OpCtx
}

var reqPool = sync.Pool{New: func() any { return new(request) }}

func putReq(r *request) {
	r.sess = nil
	r.data = nil
	r.path, r.path2 = "", ""
	r.ran = false
	r.ino, r.moved = 0, 0
	reqPool.Put(r)
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sess := &session{
		srv:         s,
		conn:        conn,
		bw:          bufio.NewWriterSize(conn, 64<<10),
		handles:     make(map[uint32]handle),
		nextID:      1,
		sr:          schedReq{grant: make(chan bool, 1)},
		completions: make(chan *request, sessionWindow),
		slots:       make(chan struct{}, sessionWindow),
	}
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		sess.writeLoop()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf [maxGroup]*request
	for {
		req := sess.read(br)
		if req == nil {
			break // EOF, reset, or protocol violation: the session is over
		}
		if !sess.admit(req) {
			continue
		}
		// An unflagged frame opens a group that every following frame
		// joins while it is unflagged and already wholly buffered, so the
		// group never waits on the wire. A flagged frame runs alone.
		group := append(buf[:0], req)
		for !req.flagged && len(group) < maxGroup && sess.groupable(br) {
			if next := sess.read(br); next != nil && sess.admit(next) {
				group = append(group, next)
			}
		}
		sess.dispatch(group)
	}
	// Teardown: in-flight requests hold slots until the writer completes
	// them, so holding every slot proves the pipeline is empty. Then the
	// writer can stop and the handles can close.
	for i := 0; i < cap(sess.slots); i++ {
		sess.slots <- struct{}{}
	}
	close(sess.completions)
	writerWG.Wait()
	sess.closeAll()
}

// read reads the next frame into a pooled request and takes a window
// slot for it, blocking until a reply drains if the window is full. nil
// means the session is over.
func (sess *session) read(br *bufio.Reader) *request {
	req := reqPool.Get().(*request)
	payload, err := readFrame(br, req.buf)
	if err != nil {
		putReq(req)
		return nil
	}
	req.buf = payload
	req.sess = sess
	sess.slots <- struct{}{}
	return req
}

// groupable reports whether the next frame can join the current group
// without blocking: it is wholly buffered, it is not flagged (attach
// counts as flagged), and the window has room for it — only the reader
// takes window slots, so room now is room at read.
func (sess *session) groupable(br *bufio.Reader) bool {
	if br.Buffered() < 5 || len(sess.slots) == cap(sess.slots) {
		return false
	}
	hdr, _ := br.Peek(5)
	n := int(binary.BigEndian.Uint32(hdr))
	return n > 0 && br.Buffered() >= 4+n && hdr[4]&opSyncFlag == 0
}

// header decodes a request's op byte and trace ID into req, noting
// whether the client flagged the frame synchronous. Attach is matched on
// its raw code before the flag is stripped.
func (req *request) header(d *dec) {
	op := d.u8()
	req.trace = d.u64()
	req.op = vfs.Op(op)
	req.flagged = req.op != opAttach && op&opSyncFlag != 0
	if req.flagged {
		req.op = vfs.Op(op &^ opSyncFlag)
	}
}

// admit decodes one request frame and reports whether it is to be
// dispatched. Attach and malformed frames are answered through the
// writer at once. The request holds a window slot until it completes.
func (sess *session) admit(req *request) bool {
	d := dec{b: req.buf}
	req.header(&d)
	if d.err != nil {
		// Header too short to even carry a trace; echo zero.
		sess.respondErr(req, vfs.ErrInvalid)
		return false
	}
	if req.op == opAttach {
		name := d.str()
		if d.err != nil {
			sess.respondErr(req, vfs.ErrInvalid)
			return false
		}
		t := sess.srv.tenants[name]
		if t == nil {
			sess.respondErr(req, ErrUnknownTenant)
			return false
		}
		sess.ten = t
		out := &req.out
		out.b = out.b[:0]
		out.u64(req.trace)
		out.u8(stOK)
		sess.completions <- req
		return false
	}
	if sess.ten == nil {
		sess.respondErr(req, ErrNoTenant)
		return false
	}
	if !req.parse(&d) {
		sess.respondErr(req, vfs.ErrInvalid)
		return false
	}
	req.opctx.Reset(req.trace)
	req.start = time.Now()
	return true
}

// dispatch runs a group of admitted requests under one slot grant costed
// at their summed estimates: in arrival order, inside one persist scope
// when there is more than one, with each op's context attached. After
// the ops it closes the scope, settles the tenant's clock once to the
// measured time and releases the slot, and only then replies: a lone
// flagged request on the reader itself — its client is reading, so this
// write cannot block on a peer that is itself blocked writing to us —
// and everything else through the writer. A dispatch the closed
// scheduler refuses answers ErrUnmounted.
func (sess *session) dispatch(group []*request) {
	sched := sess.srv.sched
	r := &sess.sr
	r.cost = 0
	for _, req := range group {
		r.cost += req.cost
	}
	if !sched.acquire(sess.ten.name, r) {
		for _, req := range group {
			sess.respondErr(req, vfs.ErrUnmounted)
		}
		return
	}
	var scope PersistScope
	if len(group) > 1 && sched.newScope != nil {
		scope = sched.newScope()
	}
	start := time.Now()
	done := start
	for i, req := range group {
		if i > 0 && scope != nil {
			scope.OpBoundary()
		}
		done = req.run(done)
	}
	if scope != nil {
		scope.Close()
		done = time.Now()
	}
	sched.settle(r.q, done.Sub(start).Nanoseconds()-r.cost)
	sched.release()
	if req := group[0]; req.flagged {
		req.done = done
		sess.send(req, true)
		return
	}
	for _, req := range group {
		req.done = done
		sess.completions <- req
	}
}

// run executes req in the caller's service slot from start and returns
// when it ended. The wait since admission is charged to its queue stage
// and the run to its service stage; its context is attached to the
// goroutine for the body, so deep layers can charge their stages.
func (req *request) run(start time.Time) time.Time {
	ctx := &req.opctx
	ctx.Charge(obs.StageQueue, start.Sub(req.start).Nanoseconds())
	ctx.Attach()
	req.exec()
	ctx.Detach()
	end := time.Now()
	ctx.Charge(obs.StageService, end.Sub(start).Nanoseconds())
	return end
}

// respondErr completes req at once with an error response (no slot, no
// tenant accounting).
func (sess *session) respondErr(req *request, err error) {
	out := &req.out
	out.b = out.b[:0]
	out.u64(req.trace)
	encodeErr(out, err)
	sess.completions <- req
}

// parse decodes the per-op arguments into req and sets its scheduler
// cost. False means a malformed request.
func (req *request) parse(d *dec) bool {
	req.cost = 1
	switch req.op {
	case vfs.OpOpen:
		req.flags = int(d.u32())
		req.path = d.str()
	case vfs.OpCreate:
		req.path = d.str()
	case vfs.OpClose, vfs.OpFsync, vfs.OpSize:
		req.id = d.u32()
	case vfs.OpRead:
		req.id = d.u32()
		req.off = int64(d.u64())
		req.n = int(d.u32())
		if req.n < 0 || req.n > MaxIO {
			return false
		}
		req.cost = opCost(req.n)
	case vfs.OpWrite:
		req.id = d.u32()
		req.off = int64(d.u64())
		req.data = d.bytes()
		req.cost = opCost(len(req.data))
	case vfs.OpTruncate:
		req.id = d.u32()
		req.size = int64(d.u64())
	case vfs.OpMkdir, vfs.OpRmdir, vfs.OpUnlink, vfs.OpStat, vfs.OpReadDir:
		req.path = d.str()
	case vfs.OpRename:
		req.path = d.str()
		req.path2 = d.str()
	case vfs.OpSync:
	default:
		return false
	}
	return d.err == nil
}

// writeLoop is the session's writer goroutine: it serializes completed
// requests onto the wire.
func (sess *session) writeLoop() {
	for req := range sess.completions {
		sess.send(req, false)
	}
}

// send writes req's response and completes req. The writer goroutine
// flushes only when its completion queue has gone empty, so a burst of
// pipelined replies shares one syscall; the reader answering a flagged
// request (flush set) always flushes, since its client waits for this
// very reply. After a write error the wire is dead: later responses are
// dropped, their accounting still runs, and closing the connection
// unblocks the reader.
func (sess *session) send(req *request, flush bool) {
	sess.wmu.Lock()
	if !sess.dead {
		err := writeFrame(sess.bw, req.out.b)
		if err == nil && (flush || len(sess.completions) == 0) {
			err = sess.bw.Flush()
		}
		if err != nil {
			sess.dead = true
			sess.conn.Close()
		}
	}
	sess.wmu.Unlock()
	sess.complete(req)
}

// complete records one executed request's accounting, returns it to the
// pool and releases its window slot. It runs on whichever goroutine wrote
// the reply, after the write, with no obs.OpCtx attached (run detaches
// before anything replies) — so the flight record's NT store cannot be
// charged to any request's StageFlush.
func (sess *session) complete(req *request) {
	if req.ran {
		t := sess.ten
		lat := req.done.Sub(req.start).Nanoseconds()
		t.record(req.op, lat, &req.opctx)
		if sess.srv.slow.Exceeds(lat) {
			sess.srv.slow.Record(obs.SlowOp{
				Side:    "server",
				Trace:   obs.TraceString(req.trace),
				Tenant:  t.name,
				Op:      req.op.String(),
				TotalNS: lat,
				Stages:  obs.StageMap(req.opctx.Breakdown()),
			})
		}
		if fr := sess.srv.flight; fr != nil {
			rec := flight.Record{
				Trace:  req.trace,
				Ino:    req.ino,
				Start:  req.start.UnixNano(),
				Op:     req.op,
				Result: 255,
				Tenant: t.name,
				Stages: req.opctx.Breakdown(),
			}
			if len(req.out.b) >= 9 {
				rec.Result = req.out.b[8]
			}
			// The request is pooled, so every argument field may hold an
			// earlier request's value: take only what this op decoded.
			switch req.op {
			case vfs.OpRead, vfs.OpWrite:
				rec.Off, rec.Len = req.off, uint32(req.moved)
			case vfs.OpTruncate:
				rec.Off = req.size
			case vfs.OpSize:
				rec.Op = vfs.OpStat // persisted op codes stop at OpSync
			}
			fr.Record(&rec)
		}
	}
	putReq(req)
	<-sess.slots
}

// closeAll closes every handle the session still holds — the server-side
// half of the handle lifecycle: a dying connection leaks nothing.
func (sess *session) closeAll() {
	for id, h := range sess.handles {
		h.f.Close()
		delete(sess.handles, id)
	}
}

// encodeErr appends an error status to a response.
func encodeErr(out *enc, err error) {
	code := codeFor(err)
	out.u8(code)
	if code == stOther {
		out.str(err.Error())
	}
}

// fail encodes an error response, preserving the trace echo.
func (req *request) fail(err error) {
	req.out.b = req.out.b[:8]
	encodeErr(&req.out, err)
}

// exec runs the decoded operation against the tenant's view and encodes
// the response into req.out. It runs on the session reader, in a
// service slot.
func (req *request) exec() {
	req.ran = true
	sess := req.sess
	t := sess.ten
	view := t.view
	out := &req.out
	out.b = out.b[:0]
	out.u64(req.trace)
	// Every op on an open file resolves its handle here, once: an unknown
	// ID fails them all the same way, and the inode number the flight
	// record carries is taken in one place. Close also retires the ID.
	var h handle
	switch req.op {
	case vfs.OpClose, vfs.OpRead, vfs.OpWrite, vfs.OpFsync, vfs.OpTruncate, vfs.OpSize:
		var ok bool
		if h, ok = sess.lookup(req.id, req.op == vfs.OpClose); !ok {
			req.fail(ErrBadHandle)
			return
		}
		req.ino = h.ino
	}
	switch req.op {
	case vfs.OpOpen:
		f, err := view.Open(req.path, req.flags)
		if err != nil {
			req.fail(err)
			return
		}
		id, ino := sess.put(f, req.flags)
		req.ino = ino
		out.u8(stOK)
		out.u32(id)
	case vfs.OpCreate:
		f, err := view.Create(req.path)
		if err != nil {
			req.fail(err)
			return
		}
		id, ino := sess.put(f, vfs.ORdwr)
		req.ino = ino
		out.u8(stOK)
		out.u32(id)
	case vfs.OpClose:
		if err := h.f.Close(); err != nil {
			req.fail(err)
			return
		}
		out.u8(stOK)
	case vfs.OpRead:
		// Read directly into the response buffer: status and length are
		// placeholders until the read lands, so the hot path stages no
		// scratch copy and allocates nothing at steady state.
		out.u8(0)
		out.u32(0)
		dst := out.grow(req.n)
		got, err := h.f.ReadAt(dst, req.off)
		switch err {
		case nil:
			out.b[8] = stOK
		case io.EOF:
			out.b[8] = stEOF
		default:
			out.b = out.b[:8]
			encodeErr(out, err)
			return
		}
		binary.BigEndian.PutUint32(out.b[9:13], uint32(got))
		out.b = out.b[:13+got]
		req.moved = got
		t.bytesR.Add(int64(got))
	case vfs.OpWrite:
		// Quota: admit the estimated growth before writing, settle to
		// the actual size delta after.
		oldSize := h.f.Size()
		end := req.off + int64(len(req.data))
		if h.flags&vfs.OAppend != 0 {
			end = oldSize + int64(len(req.data))
		}
		growth := end - oldSize
		if growth < 0 {
			growth = 0
		}
		qt := time.Now()
		err := t.chargeGrow(growth)
		req.opctx.Charge(obs.StageQuota, time.Since(qt).Nanoseconds())
		if err != nil {
			req.fail(err)
			return
		}
		n, err := h.f.WriteAt(req.data, req.off)
		req.moved = n
		t.settle(h.f.Size() - oldSize - growth)
		if err != nil {
			req.fail(err)
			return
		}
		out.u8(stOK)
		out.u32(uint32(n))
		t.bytesW.Add(int64(n))
	case vfs.OpFsync:
		if err := h.f.Fsync(); err != nil {
			req.fail(err)
			return
		}
		out.u8(stOK)
	case vfs.OpTruncate:
		oldSize := h.f.Size()
		qt := time.Now()
		cerr := t.chargeGrow(req.size - oldSize)
		req.opctx.Charge(obs.StageQuota, time.Since(qt).Nanoseconds())
		if cerr != nil {
			req.fail(cerr)
			return
		}
		err := h.f.Truncate(req.size)
		grow := req.size - oldSize
		if grow < 0 {
			grow = 0
		}
		t.settle(h.f.Size() - oldSize - grow)
		if err != nil {
			req.fail(err)
			return
		}
		out.u8(stOK)
	case vfs.OpSize:
		out.u8(stOK)
		out.u64(uint64(h.f.Size()))
	case vfs.OpMkdir, vfs.OpRmdir, vfs.OpUnlink:
		var err error
		switch req.op {
		case vfs.OpMkdir:
			err = view.Mkdir(req.path)
		case vfs.OpRmdir:
			err = view.Rmdir(req.path)
		case vfs.OpUnlink:
			var fi vfs.FileInfo
			fi, err = view.Stat(req.path)
			if err == nil {
				if err = view.Unlink(req.path); err == nil {
					t.settle(-fi.Size)
				}
			}
		}
		if err != nil {
			req.fail(err)
			return
		}
		out.u8(stOK)
	case vfs.OpRename:
		if err := view.Rename(req.path, req.path2); err != nil {
			req.fail(err)
			return
		}
		out.u8(stOK)
	case vfs.OpStat:
		fi, err := view.Stat(req.path)
		if err != nil {
			req.fail(err)
			return
		}
		out.u8(stOK)
		out.str(fi.Name)
		out.u64(uint64(fi.Size))
		if fi.IsDir {
			out.u8(1)
		} else {
			out.u8(0)
		}
		out.u64(uint64(fi.Blocks))
	case vfs.OpReadDir:
		ents, err := view.ReadDir(req.path)
		if err != nil {
			req.fail(err)
			return
		}
		total := 0
		for _, e := range ents {
			total += 3 + len(e.Name)
		}
		if total > MaxIO {
			req.fail(fmt.Errorf("server: directory listing exceeds %d bytes", MaxIO))
			return
		}
		out.u8(stOK)
		out.u32(uint32(len(ents)))
		for _, e := range ents {
			out.str(e.Name)
			if e.IsDir {
				out.u8(1)
			} else {
				out.u8(0)
			}
		}
	case vfs.OpSync:
		if err := view.Sync(); err != nil {
			req.fail(err)
			return
		}
		out.u8(stOK)
	}
}

// put registers a handle and returns its session-local ID. IDs are never
// reused within a session, so a stale client ID cannot alias a newer file.
func (sess *session) put(f vfs.File, flags int) (uint32, uint64) {
	ino := vfs.InodeOf(f)
	id := sess.nextID
	sess.nextID++
	sess.handles[id] = handle{f: f, flags: flags, ino: ino}
	return id, ino
}

// lookup returns a handle, removing it from the table when retire is set
// (close).
func (sess *session) lookup(id uint32, retire bool) (handle, bool) {
	h, ok := sess.handles[id]
	if ok && retire {
		delete(sess.handles, id)
	}
	return h, ok
}
