package nvmm

import (
	"sync"

	"hinfs/internal/goid"
)

// Fence coalescing.
//
// A batch of independent operations dispatched together (the server's
// grouped dispatch of one session's pipelined frames) each ends with a trailing Fence() — the
// ordering point that makes the op's last persist visible before its
// reply. Between independent ops those trailing fences are redundant:
// one fence at the end of the batch orders everything the batch
// persisted (NVLog's group-barrier observation). A FenceScope captures
// exactly that: while a goroutine runs inside a scope,
//
//   - Fence() becomes pending instead of issuing (latency and the
//     fault-plane event are both skipped);
//   - any subsequent store or flush on the same goroutine materializes
//     the pending fence first, so ordering *within* an op — fence
//     between dependent persists — is preserved exactly;
//   - OpBoundary() marks the seam between independent ops: a fence
//     still pending there is provably trailing and is deferred to the
//     scope's end;
//   - Close() issues one real fence covering every deferred trailing
//     fence and counts the rest as elided (Stats.FencesElided).
//
// Elided fences never reach the fault plane, so the crash explorer sees
// the coalesced persist-event schedule — the schedule it verifies is the
// schedule production runs.
//
// Attachment is goroutine-local (goid.Local, the table obs uses for
// OpCtx): deep layers (journal, pmfs, core) call d.Fence() through
// interfaces that must not grow scope parameters. When no scope is
// active anywhere, Fence() pays one atomic load over the old path.

var (
	scopes    goid.Local[FenceScope]
	scopePool = sync.Pool{New: func() any { return new(FenceScope) }}
)

// FenceScope is a goroutine-attached fence-coalescing window. Not safe
// for concurrent use: it belongs to the goroutine that entered it.
type FenceScope struct {
	d *Device
	// slot is the scope's goroutine binding; zero when it runs detached.
	slot  goid.Slot
	depth int32
	// pending is a requested-but-unissued fence with no store after it
	// yet — it may still need to materialize if the current op stores
	// again, or it may prove trailing at the next OpBoundary.
	pending bool
	// deferred counts trailing fences already proven safe to coalesce.
	deferred int64
}

// EnterFenceScope opens a coalescing window for the calling goroutine.
// Nested entry on the same goroutine and device returns the same scope
// (Close unwinds the nesting); entry while a scope for a different
// device is attached returns a detached scope, under which fences stay
// real. The scope must be Closed on the same goroutine.
func (d *Device) EnterFenceScope() *FenceScope {
	if s := scopes.Get(); s != nil {
		if s.d == d {
			s.depth++
			return s
		}
		// Another device's scope owns this goroutine; don't entangle
		// the two — run detached.
		return &FenceScope{d: d}
	}
	s := scopePool.Get().(*FenceScope)
	*s = FenceScope{d: d}
	// A full probe window (pathological collision) leaves the scope
	// detached: every fence stays real, so only the optimization is lost.
	s.slot = scopes.Set(s)
	return s
}

// fenceScope returns the scope attached to the calling goroutine for
// this device, or nil. One atomic load when no scope is active anywhere.
func (d *Device) fenceScope() *FenceScope {
	if s := scopes.Get(); s != nil && s.d == d {
		return s
	}
	return nil
}

// materializeFence issues a pending in-scope fence before a store or
// flush, preserving intra-op ordering under coalescing: a fence between
// two dependent persists on the same goroutine always lands between
// them on the device's event stream.
//
// The fencesPending gate makes this nearly free on the common path: the
// goroutine-ID lookup only runs while some scope on this device holds a
// pending fence, a window that closes at the owner's next store or
// OpBoundary. Only the owning goroutine's view of the gate matters for
// correctness — a pending fence must materialize before *that
// goroutine's* next store, and the owner always observes its own
// counter increment; other goroutines' lookups are no-ops either way.
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
// Nil-safe; nested entries unwind without fencing.
func (s *FenceScope) Close() {
	if s == nil {
		return
	}
	if s.depth > 0 {
		s.depth--
		return
	}
	absorbed := s.deferred
	d := s.d
	if s.pending {
		absorbed++
		s.pending = false
		d.fencesPending.Add(-1)
	}
	// Detach before fencing so the closing fence is real even though it
	// runs on the scope's own goroutine.
	scopes.Clear(s.slot)
	if absorbed > 0 {
		d.fenceReal()
		d.fencesElided.Add(absorbed - 1)
	}
	s.d = nil
	scopePool.Put(s)
}
