package obs

import "hinfs/internal/goid"

// Stage identifies one attributable segment of a request's latency. The
// paper's argument is that on NVMM the interesting time is software time;
// stages decompose a server operation's measured latency into the
// software waits that compose it: scheduler queue wait, quota admission,
// contended namespace/journal locks, DRAM buffer allocation stalls,
// emulated device persist time, and the worker service time that contains
// the middle four.
type Stage uint8

// The stages of the per-op latency breakdown.
const (
	// StageQueue is fair-scheduler queue wait: admission to dispatch.
	StageQueue Stage = iota
	// StageQuota is quota admission-check time.
	StageQuota
	// StageLock is contended lock wait (per-directory namespace locks,
	// journal lanes). Uncontended acquisitions charge nothing.
	StageLock
	// StageStall is foreground DRAM-buffer allocation stall time, net of
	// any device flush time charged inside the stall episode.
	StageStall
	// StageFlush is emulated NVMM persist latency, including bandwidth
	// queueing (clflush loops, non-temporal store drains).
	StageFlush
	// StageService is total worker service time: dispatch to completion.
	// It contains quota/lock/stall/flush plus unattributed compute.
	StageService
	NumStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageQueue:
		return "queue"
	case StageQuota:
		return "quota"
	case StageLock:
		return "lock"
	case StageStall:
		return "stall"
	case StageFlush:
		return "flush"
	case StageService:
		return "service"
	}
	return "unknown"
}

// Stages lists every stage in display order.
func Stages() []Stage {
	return []Stage{StageQueue, StageQuota, StageLock, StageStall, StageFlush, StageService}
}

// OpCtx is the request-scoped observability context: the wire-propagated
// trace ID plus a fixed-size per-stage latency accumulator. It is
// embedded in long-lived session state and Reset per request, so the hot
// path allocates nothing.
//
// Charging discipline: all Charge calls for one op happen either on the
// goroutine the op is Attached to (deep layers via CurrentOp) or on the
// session reader before/after the run with happens-before edges to the
// writer, so the stage slots are plain int64s, not atomics.
type OpCtx struct {
	// Trace is the wire-propagated request/trace ID (client-assigned).
	Trace uint64
	// Scope is the persist scope of the dispatch running the op (an
	// *nvmm.FenceScope), nil for a lone op. The dispatcher sets it on
	// every op; nvmm's Fence finds it through CurrentOp.
	Scope any

	stage [NumStages]int64
	slot  goid.Slot
}

// Reset prepares the context for a new request.
func (c *OpCtx) Reset(trace uint64) {
	if c == nil {
		return
	}
	c.Trace = trace
	for i := range c.stage {
		c.stage[i] = 0
	}
}

// Charge adds ns to stage st. Nil-safe; negative charges are dropped.
func (c *OpCtx) Charge(st Stage, ns int64) {
	if c == nil || ns <= 0 {
		return
	}
	c.stage[st] += ns
}

// StageNS returns the accumulated nanoseconds for st.
func (c *OpCtx) StageNS(st Stage) int64 {
	if c == nil {
		return 0
	}
	return c.stage[st]
}

// Breakdown returns a copy of the per-stage accumulator.
func (c *OpCtx) Breakdown() [NumStages]int64 {
	if c == nil {
		return [NumStages]int64{}
	}
	return c.stage
}

// --- goroutine-local attachment ---
//
// Deep layers (pmfs directory locks, journal lanes, buffer stalls, nvmm
// persists and fences) sit behind interfaces that must not grow context
// parameters, so the executing goroutine carries the OpCtx instead: the
// server's dispatch Attaches the context around the request body and
// those layers look it up with CurrentOp. This is the process's one
// goroutine-keyed table. goid.ID is two loads on amd64, which is what
// lets CurrentOp sit on the per-persist device path.

var attached goid.Local[OpCtx]

// Attach registers c as the current goroutine's active op, replacing a
// context attached earlier on the same goroutine. If the table's probe
// window is full (pathological collision), the context stays detached:
// deep-layer charges are lost for this op but explicit charges (queue,
// quota, service) still land. Nil-safe.
func (c *OpCtx) Attach() {
	if c == nil {
		return
	}
	c.slot = attached.Set(c)
}

// Detach removes the registration made by Attach. Nil-safe; a context
// that never attached (or lost the probe race) is a no-op.
func (c *OpCtx) Detach() {
	if c == nil {
		return
	}
	attached.Clear(c.slot)
	c.slot = 0
}

// CurrentOp returns the OpCtx attached to the calling goroutine, or nil.
// When no op is attached anywhere in the process, it is a single atomic
// load — the obs-off fast path for every deep layer.
func CurrentOp() *OpCtx { return attached.Get() }

// CurrentTrace returns the attached op's trace ID, or 0.
func CurrentTrace() uint64 {
	if c := CurrentOp(); c != nil {
		return c.Trace
	}
	return 0
}
