package nvmm

import (
	"testing"

	"hinfs/internal/obs"
)

func fenceTestDev(t *testing.T) *Device {
	t.Helper()
	d, err := New(Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// enterScope opens a scope on d and attaches an op carrying it to the
// calling goroutine, as the server's dispatch does. Attach once per
// goroutine: a second Attach replaces the binding, and each Detach
// takes one off the table's live count.
func enterScope(d *Device, op *obs.OpCtx) *FenceScope {
	s := d.EnterFenceScope()
	op.Scope = s
	op.Attach()
	return s
}

// exitScope detaches op, then closes s, in the dispatch's order.
func exitScope(s *FenceScope, op *obs.OpCtx) {
	op.Detach()
	s.Close()
}

// TestFenceScopeCoalesces is the core contract: K independent ops, each
// ending in a trailing fence, issue exactly one real fence per scope.
func TestFenceScopeCoalesces(t *testing.T) {
	d := fenceTestDev(t)
	buf := make([]byte, 64)
	var ctx obs.OpCtx
	s := enterScope(d, &ctx)
	for op := 0; op < 4; op++ {
		d.Write(buf, int64(op)*64)
		d.Flush(int64(op)*64, 64)
		d.Fence() // trailing
		s.OpBoundary()
	}
	exitScope(s, &ctx)
	st := d.Stats()
	if st.Fences != 1 {
		t.Errorf("Fences = %d, want 1", st.Fences)
	}
	if st.FencesElided != 3 {
		t.Errorf("FencesElided = %d, want 3", st.FencesElided)
	}
}

// TestFenceScopeIntraOpOrdering: a fence between two dependent persists
// of the same op must materialize before the second store, coalescing
// only the trailing fence.
func TestFenceScopeIntraOpOrdering(t *testing.T) {
	d := fenceTestDev(t)
	buf := make([]byte, 64)
	var ctx obs.OpCtx
	s := enterScope(d, &ctx)
	for op := 0; op < 2; op++ {
		base := int64(op) * 256
		d.Write(buf, base)
		d.Flush(base, 64)
		d.Fence() // orders entry body before valid bit — must be real
		d.Write(buf, base+64)
		d.Flush(base+64, 64)
		d.Fence() // trailing
		s.OpBoundary()
	}
	exitScope(s, &ctx)
	st := d.Stats()
	// 2 intra-op fences materialized + 1 closing fence; 1 elided.
	if st.Fences != 3 {
		t.Errorf("Fences = %d, want 3", st.Fences)
	}
	if st.FencesElided != 1 {
		t.Errorf("FencesElided = %d, want 1", st.FencesElided)
	}
}

// TestFenceScopeSingleOp: a batch of one coalesces nothing but still
// issues its trailing fence exactly once.
func TestFenceScopeSingleOp(t *testing.T) {
	d := fenceTestDev(t)
	var ctx obs.OpCtx
	s := enterScope(d, &ctx)
	d.Flush(0, 64)
	d.Fence()
	s.OpBoundary()
	exitScope(s, &ctx)
	st := d.Stats()
	if st.Fences != 1 || st.FencesElided != 0 {
		t.Errorf("Fences = %d, FencesElided = %d, want 1, 0", st.Fences, st.FencesElided)
	}
}

// TestFenceScopeNoFence: a scope whose body never fences must not fence
// at Close either.
func TestFenceScopeNoFence(t *testing.T) {
	d := fenceTestDev(t)
	var ctx obs.OpCtx
	s := enterScope(d, &ctx)
	d.Write(make([]byte, 64), 0)
	s.OpBoundary()
	exitScope(s, &ctx)
	if st := d.Stats(); st.Fences != 0 || st.FencesElided != 0 {
		t.Errorf("Fences = %d, FencesElided = %d, want 0, 0", st.Fences, st.FencesElided)
	}
}

// TestFenceScopeOtherDevice: a scope binds one device; another device's
// fences under the same attached op stay real.
func TestFenceScopeOtherDevice(t *testing.T) {
	d1 := fenceTestDev(t)
	d2 := fenceTestDev(t)
	var ctx obs.OpCtx
	s := enterScope(d1, &ctx)
	d2.Fence()
	if st := d2.Stats(); st.Fences != 1 {
		t.Errorf("other device's fence absorbed: %d", st.Fences)
	}
	d1.Fence()
	s.OpBoundary()
	exitScope(s, &ctx)
	if st := d1.Stats(); st.Fences != 1 {
		t.Errorf("d1 Fences = %d, want 1", st.Fences)
	}
}

// TestFenceScopeOtherGoroutine: a scope reaches only the op that carries
// it. While goroutine A's op holds a pending fence, goroutine B's fences
// stay real — unattached, or attached to an op with no scope — and B's
// stores do not materialize A's fence.
func TestFenceScopeOtherGoroutine(t *testing.T) {
	for _, attachB := range []bool{false, true} {
		d := fenceTestDev(t)
		var opA obs.OpCtx
		s := enterScope(d, &opA)
		d.Fence() // A's trailing fence: pending
		done := make(chan struct{})
		go func() {
			defer close(done)
			var opB obs.OpCtx
			if attachB {
				opB.Attach()
				defer opB.Detach()
			}
			d.Fence()
			d.Write(make([]byte, 64), 64)
			d.Flush(64, 64)
			d.Fence()
		}()
		<-done
		if st := d.Stats(); st.Fences != 2 || st.FencesElided != 0 {
			t.Errorf("attachB=%v: after B, Fences = %d, FencesElided = %d, want 2, 0",
				attachB, st.Fences, st.FencesElided)
		}
		if !s.pending {
			t.Errorf("attachB=%v: B's store materialized A's pending fence", attachB)
		}
		s.OpBoundary()
		exitScope(s, &opA)
		if st := d.Stats(); st.Fences != 3 || st.FencesElided != 0 {
			t.Errorf("attachB=%v: Fences = %d, FencesElided = %d, want 3, 0",
				attachB, st.Fences, st.FencesElided)
		}
	}
}

// TestFenceScopeZeroAllocs: the scoped fence path is a server hot path
// and must not allocate. The plain test run asserts it; a -race build
// skips it.
func TestFenceScopeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := fenceTestDev(t)
	var ctx obs.OpCtx // long-lived, as in a pooled server request
	allocs := testing.AllocsPerRun(200, func() {
		s := enterScope(d, &ctx)
		d.Flush(0, 64)
		d.Fence()
		s.OpBoundary()
		d.Fence()
		s.OpBoundary()
		exitScope(s, &ctx)
	})
	if allocs != 0 {
		t.Errorf("scoped fence path allocates %.1f/op, want 0", allocs)
	}
}

// TestResetStatsClearsElided keeps the new counter in the reset set.
func TestResetStatsClearsElided(t *testing.T) {
	d := fenceTestDev(t)
	var ctx obs.OpCtx
	s := enterScope(d, &ctx)
	d.Fence()
	s.OpBoundary()
	d.Fence()
	s.OpBoundary()
	exitScope(s, &ctx)
	if st := d.Stats(); st.FencesElided != 1 {
		t.Fatalf("FencesElided = %d, want 1", st.FencesElided)
	}
	d.ResetStats()
	if st := d.Stats(); st.FencesElided != 0 || st.Fences != 0 {
		t.Errorf("counters survive reset: %+v", st)
	}
}
