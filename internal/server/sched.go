package server

import (
	"sync"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// sched is a weighted fair scheduler in the virtual-runtime family (the
// same shape as start-time fair queueing or Linux CFS): each tenant owns
// a FIFO queue and a virtual runtime — its cumulative service time in
// nanoseconds divided by its weight. A bounded worker pool always serves
// the backlogged tenant with the smallest virtual runtime, so over any
// busy interval tenants receive worker time in the ratio of their
// weights, regardless of how many connections each one floods the server
// with.
//
// Dispatch pre-charges the request's estimated cost; after the request
// runs, the worker settles the tenant's clock against the measured
// service time. The settle step is what makes fairness hold for
// operations whose true cost cannot be known up front — an fsync that
// flushes a deep write buffer may cost three orders of magnitude more
// worker time than its estimate, and without settling a tenant could buy
// that time at the estimate price.
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
// The scheduler also bounds server concurrency: only `workers` requests
// execute at once, however many sessions are connected. That bound is
// what makes fairness meaningful — contention is resolved by the virtual
// clocks, not by goroutine-scheduler luck.
//
// A request may also run inline, on the goroutine that admitted it,
// instead of waking a worker (tryInline): only when no tenant queue is
// backlogged and a service slot is free — exactly when an idle worker
// would have dispatched it at once. It is charged, clamped and settled as
// that worker would have, and it holds one of the `workers` slots while
// it runs, so inline runs and worker batches share one concurrency bound.
//
// With pipelined sessions a backlogged tenant queue usually holds many
// requests; a worker drains up to `batch` of them in one dispatch and
// brackets the run in a PersistScope (when configured), so the batch's
// trailing device fences coalesce into one ordering point. The whole
// batch's measured service time settles against the tenant's clock, so
// batching changes the grain of fairness (bounded by batch × quantum),
// never its ratios.
type sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string]*schedQueue
	// order fixes the tie-break scan sequence, making single-worker
	// dispatch fully deterministic (tested).
	order []string
	// vtime is the service frontier: the largest virtual runtime any
	// tenant had when dispatched. Re-entering tenants are clamped
	// relative to it when nothing else is backlogged.
	vtime  int64
	closed bool
	wg     sync.WaitGroup
	// workers is the number of service slots; busy counts the slots held
	// by worker batches and inline runs. nextBatch waits while they are
	// all held.
	workers, busy int
	// batch bounds how many requests one worker drains from a single
	// tenant queue per dispatch.
	batch int
	// newScope, when set, opens a persist scope around every multi-op
	// dispatch batch (server.Config.BatchFences).
	newScope func() PersistScope
}

// PersistScope brackets a dispatch batch for fence coalescing. The
// concrete implementation is nvmm.FenceScope; the indirection keeps the
// server ignorant of the device (baselines and tests run without one).
type PersistScope interface {
	// OpBoundary marks the seam between two independent ops.
	OpBoundary()
	// Close issues the batch's single coalesced ordering point.
	Close()
}

// task is one schedulable unit of work.
type task interface {
	// exec runs the operation body in a worker slot.
	exec()
	// finish completes the task: delivers the response or unblocks the
	// submitter. It runs after the whole dispatch batch's persist scope
	// has closed, so a reply released here is never sent before the
	// batch's coalesced ordering fence. ran=false means the scheduler
	// shut down before the task executed.
	finish(ran bool)
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

// defaultDispatchBatch is the per-dispatch drain bound when the server
// config leaves it zero.
const defaultDispatchBatch = 8

type schedQueue struct {
	weight int64
	vrt    int64 // virtual runtime: service ns consumed / weight
	// lastArrival is when the tenant last enqueued a request; the lag
	// clamp applies only after idleGrace of silence.
	lastArrival time.Time
	// head/tail is the intrusive FIFO of waiting requests: enqueue links
	// the request itself, so admission allocates nothing.
	head, tail *schedReq
	depth      int
	// servedNS is cumulative measured service time, the quantity the
	// weights divide; exported per tenant via Server.Stats.
	servedNS int64
	// estErrNS accumulates |measured - estimated| over settled requests:
	// how wrong the pre-charge model is for this tenant's mix, exported
	// so estimate drift is visible before it distorts short-run fairness.
	estErrNS int64
	// inline counts the tenant's requests run by tryInline.
	inline int64
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

// schedReq is the intrusive scheduling envelope embedded in every task:
// the cost estimate, the queue link, and the observability context.
type schedReq struct {
	cost int64 // estimated service nanoseconds, pre-charged at dispatch
	q    *schedQueue
	next *schedReq
	// enq is the admission time; the worker charges ctx's queue stage
	// with enq→dispatch. ctx (optional) also gets attached to the worker
	// goroutine around exec, so deep layers can charge their stages.
	enq time.Time
	ctx *obs.OpCtx
	t   task
}

// opCost estimates an operation's service time in nanoseconds from its
// data size: 1 µs per op plus 1 µs per 4 KiB. The estimate only shapes
// dispatch order over the few requests in flight at once — the worker
// settles each clock to the measured time afterwards, so a wrong
// estimate cannot buy extra service.
func opCost(dataBytes int) int64 { return int64(1+dataBytes/4096) * 1000 }

func newSched(weights map[string]int64, order []string, workers, batch int, newScope func() PersistScope) *sched {
	s := &sched{queues: make(map[string]*schedQueue), order: order, newScope: newScope}
	s.cond = sync.NewCond(&s.mu)
	for name, w := range weights {
		if w <= 0 {
			w = 1
		}
		s.queues[name] = &schedQueue{weight: w}
	}
	if batch <= 0 {
		batch = defaultDispatchBatch
	}
	s.batch = batch
	if workers <= 0 {
		workers = 1
	}
	s.workers = workers
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// arriveLocked stamps r's arrival for q. A tenant re-entering from idle is
// clamped to at most lagWindow behind the furthest-behind backlogged
// tenant (or the service frontier when the server is otherwise idle).
// The caller holds s.mu.
func (s *sched) arriveLocked(q *schedQueue, r *schedReq) {
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
	r.enq = now
	r.q = q
}

// chargeLocked pre-charges a request dispatched from q with its
// estimated cost. The caller holds s.mu and advances the service frontier
// once per dispatch.
func (s *sched) chargeLocked(q *schedQueue, r *schedReq) {
	q.vrt += r.cost / q.weight
	q.servedNS += r.cost
}

// advanceLocked moves the service frontier up to q's clock after a
// dispatch or settle. The caller holds s.mu.
func (s *sched) advanceLocked(q *schedQueue) {
	if q.vrt > s.vtime {
		s.vtime = q.vrt
	}
}

// enqueue queues r for tenant and returns immediately.
func (s *sched) enqueue(tenant string, r *schedReq) error {
	s.mu.Lock()
	q := s.queues[tenant]
	if q == nil || s.closed {
		s.mu.Unlock()
		return ErrUnknownTenant
	}
	s.arriveLocked(q, r)
	q.push(r)
	s.mu.Unlock()
	s.cond.Signal()
	return nil
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

// tryInline claims a service slot for r so the caller can run it on its
// own goroutine (runInline) — the dispatch an idle worker would make.
// It refuses, leaving r untouched, when any tenant queue is backlogged
// (r must then queue behind the backlog in vrt order), when every slot
// is held, or when the scheduler is closed. On success r is arrived,
// clamped and pre-charged exactly as enqueue followed by a one-request
// nextBatch would have done.
func (s *sched) tryInline(tenant string, r *schedReq) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[tenant]
	if q == nil || s.closed || s.busy >= s.workers || s.backloggedLocked() {
		return false
	}
	s.arriveLocked(q, r)
	s.chargeLocked(q, r)
	s.advanceLocked(q)
	s.busy++
	q.inline++
	return true
}

// runInline executes a request tryInline admitted, then releases its
// slot. The caller delivers the reply afterwards, outside the slot.
func (s *sched) runInline(r *schedReq) {
	s.run(r)
	s.release()
}

// release returns a service slot and wakes a worker if requests wait for
// one.
func (s *sched) release() {
	s.mu.Lock()
	s.busy--
	wake := s.backloggedLocked()
	s.mu.Unlock()
	if wake {
		s.cond.Signal()
	}
}

// funcTask adapts a plain closure to the task interface for the blocking
// Do path.
type funcTask struct {
	sr   schedReq
	fn   func()
	ran  bool
	done chan struct{}
}

func (t *funcTask) exec() { t.ran = true; t.fn() }

func (t *funcTask) finish(bool) { close(t.done) }

// Do runs fn under the fair scheduler, blocking until it has executed.
// ctx (optional) receives queue-wait and service-time stage charges and
// is attached to the worker goroutine for the duration of fn.
func (s *sched) Do(tenant string, cost int64, ctx *obs.OpCtx, fn func()) error {
	t := &funcTask{fn: fn, done: make(chan struct{})}
	t.sr = schedReq{cost: cost, ctx: ctx, t: t}
	if err := s.enqueue(tenant, &t.sr); err != nil {
		return err
	}
	<-t.done
	if !t.ran {
		return vfs.ErrUnmounted
	}
	return nil
}

// nextBatch blocks for work and a free service slot, then drains up to
// max requests from the backlogged queue with the smallest virtual
// runtime (ties: order position), appending them to buf. Each dequeued
// request advances the queue's clock by its estimated cost over weight.
// A non-empty batch holds one slot until the caller releases it. Returns
// buf unchanged when the scheduler is closed.
func (s *sched) nextBatch(buf []*schedReq, max int) []*schedReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return buf
		}
		var best *schedQueue
		if s.busy < s.workers {
			for _, name := range s.order {
				q := s.queues[name]
				if q.head == nil {
					continue
				}
				if best == nil || q.vrt < best.vrt {
					best = q
				}
			}
		}
		if best == nil {
			s.cond.Wait()
			continue
		}
		for len(buf) < max {
			r := best.pop()
			if r == nil {
				break
			}
			s.chargeLocked(best, r)
			buf = append(buf, r)
		}
		s.advanceLocked(best)
		s.busy++
		return buf
	}
}

// next is single-request dispatch: the policy nextBatch generalizes,
// kept for determinism tests, which execute the request themselves — so
// its slot is released at once. nil when the scheduler is closed.
func (s *sched) next() *schedReq {
	buf := s.nextBatch(make([]*schedReq, 0, 1), 1)
	if len(buf) == 0 {
		return nil
	}
	s.release()
	return buf[0]
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
	s.advanceLocked(q)
	s.mu.Unlock()
}

// run executes one dispatched request in the caller's service slot:
// queue wait and service time are charged to its context, which is
// attached to the goroutine for the body, and its queue is settled to
// the measured time.
func (s *sched) run(r *schedReq) {
	if r.ctx != nil {
		r.ctx.Charge(obs.StageQueue, time.Since(r.enq).Nanoseconds())
		r.ctx.Attach()
	}
	start := time.Now()
	r.t.exec()
	dur := time.Since(start).Nanoseconds()
	if r.ctx != nil {
		r.ctx.Detach()
		r.ctx.Charge(obs.StageService, dur)
	}
	s.settle(r.q, dur-r.cost)
}

func (s *sched) worker() {
	defer s.wg.Done()
	buf := make([]*schedReq, 0, s.batch)
	for {
		buf = s.nextBatch(buf[:0], s.batch)
		if len(buf) == 0 {
			return
		}
		// A multi-op batch coalesces its trailing persist fences: one
		// scope around the whole drain, an op boundary between requests,
		// one real fence at close. Every request's reply is released
		// only after the scope closes, so no client ever sees an ack
		// whose ordering point has not been issued.
		var scope PersistScope
		if len(buf) > 1 && s.newScope != nil {
			scope = s.newScope()
		}
		for i, r := range buf {
			if i > 0 && scope != nil {
				scope.OpBoundary()
			}
			s.run(r)
		}
		if scope != nil {
			scope.Close()
		}
		s.release()
		for _, r := range buf {
			r.t.finish(true)
		}
	}
}

// SchedStats is one tenant's scheduler-internal state, exported for the
// debug endpoint, the Prometheus exposition and hinfs-top.
type SchedStats struct {
	// QueueDepth is the number of requests waiting or running.
	QueueDepth int
	// VruntimeLagNS is how far the tenant's virtual clock trails the
	// service frontier (0 when at or past it): its unused entitlement.
	VruntimeLagNS int64
	// ServiceNS is cumulative measured service time.
	ServiceNS int64
	// EstErrNS is cumulative |measured - estimated| over settled
	// requests: the pre-charge model's accumulated error.
	EstErrNS int64
	// Inline counts requests run on their session's reader goroutine
	// instead of a worker (sched.tryInline).
	Inline int64
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
			Inline:        q.inline,
		}
	}
	return out
}

// close stops the workers after draining nothing further; queued requests
// are finished without running so blocked sessions unwind.
func (s *sched) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var orphans []*schedReq
	for _, q := range s.queues {
		for r := q.pop(); r != nil; r = q.pop() {
			orphans = append(orphans, r)
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	for _, r := range orphans {
		r.t.finish(false)
	}
}
