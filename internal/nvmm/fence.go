package nvmm

import (
	"sync"

	"hinfs/internal/obs"
)

// Fence coalescing.
//
// A batch of independent operations dispatched together (the server's
// grouped dispatch of one session's pipelined frames) each ends with a
// trailing Fence() — the ordering point that makes the op's last persist
// visible before its reply. Between independent ops those trailing
// fences are redundant: one fence at the end of the batch orders
// everything the batch persisted (NVLog's group-barrier observation). A
// FenceScope captures exactly that. The dispatcher opens one and puts it
// on each op's obs.OpCtx (OpCtx.Scope); while such an op is attached,
//
//   - Fence() becomes pending instead of issuing (latency and the
//     fault-plane event are both skipped);
//   - the op's next store or flush materializes the pending fence
//     first, so ordering *within* an op — fence between dependent
//     persists — is preserved exactly;
//   - OpBoundary() marks the seam between independent ops: a fence
//     still pending there is provably trailing and is deferred to the
//     scope's end;
//   - Close() issues one real fence covering every deferred trailing
//     fence and counts the rest as elided (Stats.FencesElided).
//
// A scope reaches only the ops that carry it, and they run one at a time
// on the dispatching goroutine, so its fields need no synchronization.
// Elided fences never reach the fault plane, so the crash explorer sees
// the coalesced persist-event schedule — the schedule it verifies is the
// schedule production runs.

var scopePool = sync.Pool{New: func() any { return new(FenceScope) }}

// FenceScope is one dispatch's fence-coalescing window on one device.
// Not safe for concurrent use: the ops carrying it run one at a time.
type FenceScope struct {
	d *Device
	// pending is a requested-but-unissued fence with no store after it
	// yet — it may still need to materialize if the current op stores
	// again, or it may prove trailing at the next OpBoundary.
	pending bool
	// deferred counts trailing fences already proven safe to coalesce.
	deferred int64
}

// EnterFenceScope opens a coalescing window on d. It takes effect for
// the ops whose attached obs.OpCtx carries it in Scope, and must be
// Closed once they have run.
func (d *Device) EnterFenceScope() *FenceScope {
	s := scopePool.Get().(*FenceScope)
	*s = FenceScope{d: d}
	d.openScopes.Add(1)
	return s
}

// fenceScope returns the scope on d that the calling goroutine's
// attached op carries, or nil. One atomic load while d has no open scope.
func (d *Device) fenceScope() *FenceScope {
	if d.openScopes.Load() == 0 {
		return nil
	}
	if op := obs.CurrentOp(); op != nil {
		if s, ok := op.Scope.(*FenceScope); ok && s.d == d {
			return s
		}
	}
	return nil
}

// materializeFence issues a pending in-scope fence before a store or
// flush, preserving intra-op ordering under coalescing: a fence between
// two dependent persists of one op always lands between them on the
// device's event stream.
//
// The fencesPending gate makes this nearly free on the common path: the
// op lookup only runs while some scope on this device holds a pending
// fence, a window that closes at the owner's next store or OpBoundary.
// Only the owning goroutine's view of the gate matters for correctness —
// a pending fence must materialize before *that op's* next store, and
// the owner always observes its own counter increment; other
// goroutines' lookups are no-ops either way.
func (d *Device) materializeFence() {
	if d.fencesPending.Load() == 0 {
		return
	}
	if s := d.fenceScope(); s != nil && s.pending {
		s.pending = false
		d.fencesPending.Add(-1)
		d.fenceReal()
	}
}

// OpBoundary marks the seam between two independent operations in the
// batch: a fence still pending here trails its op and is deferred to
// the scope's single closing fence. Nil-safe.
func (s *FenceScope) OpBoundary() {
	if s == nil {
		return
	}
	if s.pending {
		s.pending = false
		s.d.fencesPending.Add(-1)
		s.deferred++
	}
}

// Close ends the window: one real fence stands in for every fence the
// scope absorbed, and the surplus is counted in Stats.FencesElided.
// Nil-safe.
func (s *FenceScope) Close() {
	if s == nil {
		return
	}
	absorbed := s.deferred
	d := s.d
	if s.pending {
		absorbed++
		s.pending = false
		d.fencesPending.Add(-1)
	}
	d.openScopes.Add(-1)
	if absorbed > 0 {
		d.fenceReal()
		d.fencesElided.Add(absorbed - 1)
	}
	s.d = nil
	scopePool.Put(s)
}
