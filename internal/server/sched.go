package server

import (
	"sync"
	"time"
)

// sched is a weighted fair semaphore in the virtual-runtime family (the
// same shape as start-time fair queueing or Linux CFS): it grants a
// bounded number of service slots, and each tenant owns a FIFO of
// waiting requests and a virtual runtime — its cumulative service time in
// nanoseconds divided by its weight. A freed slot always goes to the
// backlogged tenant with the smallest virtual runtime, so over any busy
// interval tenants receive service time in the ratio of their weights,
// regardless of how many connections each one floods the server with.
// The scheduler runs nothing itself: the session reader that decoded a
// request acquires a slot, runs the request and releases the slot.
//
// A grant pre-charges the request's estimated cost; after the request
// runs, its holder settles the tenant's clock against the measured
// service time. The settle step is what makes fairness hold for
// operations whose true cost cannot be known up front — an fsync that
// flushes a deep write buffer may cost three orders of magnitude more
// service time than its estimate, and without settling a tenant could
// buy that time at the estimate price.
//
// A tenant whose queue momentarily drains (its clients' next requests
// are still in flight on the wire) keeps its virtual runtime, so it
// re-enters exactly as far behind as its unused entitlement — fairness
// is preserved across the micro-idle gaps every synchronous RPC client
// exhibits. The memory is bounded: on re-entry the clock is clamped to
// at most lagWindow behind the service frontier, so a tenant idle for an
// hour returns to service quickly but cannot starve others with an
// hour's banked lag.
//
// The slot count bounds server concurrency: only `workers` requests
// execute at once, however many sessions are connected. That bound is
// what makes fairness meaningful — contention is resolved by the virtual
// clocks, not by goroutine-scheduler luck.
type sched struct {
	mu     sync.Mutex
	queues map[string]*schedQueue
	// order fixes the tie-break scan sequence, making grant order fully
	// deterministic (tested).
	order []string
	// vtime is the service frontier: the largest virtual runtime any
	// tenant had when granted. Re-entering tenants are clamped relative to
	// it when nothing else is backlogged.
	vtime  int64
	closed bool
	// workers is the number of service slots; busy counts the held ones.
	workers, busy int
	// newScope, when set, opens a persist scope around every multi-op
	// dispatch (server.Config.BatchFences).
	newScope func() PersistScope
}

// PersistScope brackets a multi-op dispatch for fence coalescing. The
// concrete implementation is nvmm.FenceScope; the indirection keeps the
// server ignorant of the device (baselines and tests run without one).
// dispatch puts the scope on each op's obs.OpCtx (nil for a lone op),
// which is how the device's fences find it.
type PersistScope interface {
	// OpBoundary marks the seam between two independent ops.
	OpBoundary()
	// Close issues the dispatch's single coalesced ordering point.
	Close()
}

// schedQuantum is the granularity of the fairness guarantee in
// nanoseconds of weighted service time (1 ms). lagWindow bounds how far
// behind the service frontier an idle tenant's clock may lag on
// re-entry: at most two quanta of catch-up service can be "banked" by
// going idle. idleGrace decides what "idle" means: a tenant whose queue
// merely blips empty while its clients' next requests are in flight on
// the wire — the steady state of every synchronous RPC client — keeps
// its full entitlement; only a tenant with no arrivals for idleGrace is
// clamped. Without the grace, the clamp fires on every micro-gap and
// quietly confiscates a weighted tenant's share (measured: a 4:1 weight
// ratio degraded to ~1.3:1).
const (
	schedQuantum = int64(time.Millisecond)
	lagWindow    = 2 * schedQuantum
	idleGrace    = 50 * time.Millisecond
)

type schedQueue struct {
	weight int64
	vrt    int64 // virtual runtime: service ns consumed / weight
	// lastArrival is when the tenant last asked for a slot; the lag clamp
	// applies only after idleGrace of silence.
	lastArrival time.Time
	// head/tail is the intrusive FIFO of waiting requests: submit links
	// the request itself, so parking allocates nothing.
	head, tail *schedReq
	depth      int
	// servedNS is cumulative measured service time, the quantity the
	// weights divide; exported per tenant via Server.Stats.
	servedNS int64
	// estErrNS accumulates |measured - estimated| over settled requests:
	// how wrong the pre-charge model is for this tenant's mix, exported
	// so estimate drift is visible before it distorts short-run fairness.
	estErrNS int64
}

func (q *schedQueue) push(r *schedReq) {
	r.next = nil
	if q.tail == nil {
		q.head = r
	} else {
		q.tail.next = r
	}
	q.tail = r
	q.depth++
}

func (q *schedQueue) pop() *schedReq {
	r := q.head
	if r == nil {
		return nil
	}
	q.head = r.next
	if q.head == nil {
		q.tail = nil
	}
	r.next = nil
	q.depth--
	return r
}

// schedReq is one request for a service slot: the cost estimate, the
// queue link and the channel a parked request is answered on. A session
// owns one and reuses it for every dispatch.
type schedReq struct {
	cost int64 // estimated service nanoseconds, pre-charged at the grant
	q    *schedQueue
	next *schedReq
	// grant is 1-buffered: release sends true when it hands the parked
	// request a slot, close sends false.
	grant chan bool
}

// opCost estimates an operation's service time in nanoseconds from its
// data size: 1 µs per op plus 1 µs per 4 KiB. The estimate only shapes
// grant order over the few requests in flight at once — each clock is
// settled to the measured time afterwards, so a wrong estimate cannot
// buy extra service.
func opCost(dataBytes int) int64 { return int64(1+dataBytes/4096) * 1000 }

func newSched(weights map[string]int64, order []string, workers int, newScope func() PersistScope) *sched {
	s := &sched{queues: make(map[string]*schedQueue), order: order, newScope: newScope}
	for name, w := range weights {
		if w <= 0 {
			w = 1
		}
		s.queues[name] = &schedQueue{weight: w}
	}
	if workers <= 0 {
		workers = 1
	}
	s.workers = workers
	return s
}

// arriveLocked stamps an arrival for q. A tenant re-entering from idle is
// clamped to at most lagWindow behind the furthest-behind backlogged
// tenant (or the service frontier when the server is otherwise idle).
// The caller holds s.mu.
func (s *sched) arriveLocked(q *schedQueue) {
	now := time.Now()
	if q.head == nil && now.Sub(q.lastArrival) > idleGrace {
		base := s.vtime
		for _, name := range s.order {
			if o := s.queues[name]; o != q && o.head != nil && o.vrt < base {
				base = o.vrt
			}
		}
		if q.vrt < base-lagWindow {
			q.vrt = base - lagWindow
		}
	}
	q.lastArrival = now
}

// grantLocked gives r a slot: it pre-charges r's estimated cost to q and
// advances the service frontier to q's clock. The caller holds s.mu and
// has accounted the slot in busy.
func (s *sched) grantLocked(q *schedQueue, r *schedReq) {
	r.q = q
	q.vrt += r.cost / q.weight
	q.servedNS += r.cost
	if q.vrt > s.vtime {
		s.vtime = q.vrt
	}
}

// backloggedLocked reports whether any tenant has a request waiting. The
// caller holds s.mu.
func (s *sched) backloggedLocked() bool {
	for _, name := range s.order {
		if s.queues[name].head != nil {
			return true
		}
	}
	return false
}

// submit asks for a slot for r on behalf of tenant without blocking. It
// returns true when r took a free slot at once: nothing is backlogged and
// fewer than workers slots are held. Otherwise the answer arrives on
// r.grant: r is parked in the tenant's FIFO until release hands it a slot
// (true) or close refuses it (false); an unknown tenant or a closed
// scheduler is refused at once.
func (s *sched) submit(tenant string, r *schedReq) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[tenant]
	if q == nil || s.closed {
		r.grant <- false
		return false
	}
	s.arriveLocked(q)
	if s.busy < s.workers && !s.backloggedLocked() {
		s.busy++
		s.grantLocked(q, r)
		return true
	}
	q.push(r)
	return false
}

// acquire blocks until r holds a slot (true) or the scheduler refuses it
// (false). A granted slot is the caller's until release.
func (s *sched) acquire(tenant string, r *schedReq) bool {
	return s.submit(tenant, r) || <-r.grant
}

// release returns a slot. If requests are parked, the slot passes
// directly to the head of the backlogged queue with the smallest virtual
// runtime (ties: order position), pre-charged like any grant.
func (s *sched) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *schedQueue
	for _, name := range s.order {
		if q := s.queues[name]; q.head != nil && (best == nil || q.vrt < best.vrt) {
			best = q
		}
	}
	if best == nil {
		s.busy--
		return
	}
	r := best.pop()
	s.grantLocked(best, r)
	r.grant <- true
}

// settle charges q the difference between measured and estimated service
// time (rolling the clock back if the estimate was high).
func (s *sched) settle(q *schedQueue, delta int64) {
	if delta == 0 {
		return
	}
	s.mu.Lock()
	q.vrt += delta / q.weight
	q.servedNS += delta
	if delta < 0 {
		q.estErrNS -= delta
	} else {
		q.estErrNS += delta
	}
	if q.vrt > s.vtime {
		s.vtime = q.vrt
	}
	s.mu.Unlock()
}

// SchedStats is one tenant's scheduler-internal state, exported for the
// debug endpoint, the Prometheus exposition and hinfs-top.
type SchedStats struct {
	// QueueDepth is the number of the tenant's dispatches waiting for a
	// service slot.
	QueueDepth int
	// VruntimeLagNS is how far the tenant's virtual clock trails the
	// service frontier (0 when at or past it): its unused entitlement.
	VruntimeLagNS int64
	// ServiceNS is cumulative measured service time.
	ServiceNS int64
	// EstErrNS is cumulative |measured - estimated| over settled
	// requests: the pre-charge model's accumulated error.
	EstErrNS int64
}

// stats snapshots per-tenant scheduler state.
func (s *sched) stats() map[string]SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]SchedStats, len(s.queues))
	for name, q := range s.queues {
		lag := s.vtime - q.vrt
		if lag < 0 {
			lag = 0
		}
		out[name] = SchedStats{
			QueueDepth:    q.depth,
			VruntimeLagNS: lag,
			ServiceNS:     q.servedNS,
			EstErrNS:      q.estErrNS,
		}
	}
	return out
}

// close refuses every parked request and every later submit; slots held
// now are still released normally.
func (s *sched) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, q := range s.queues {
		for r := q.pop(); r != nil; r = q.pop() {
			r.grant <- false
		}
	}
}
