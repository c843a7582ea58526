package nvmm

import "testing"

func fenceTestDev(t *testing.T) *Device {
	t.Helper()
	d, err := New(Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFenceScopeCoalesces is the core contract: K independent ops, each
// ending in a trailing fence, issue exactly one real fence per scope.
func TestFenceScopeCoalesces(t *testing.T) {
	d := fenceTestDev(t)
	buf := make([]byte, 64)
	s := d.EnterFenceScope()
	for op := 0; op < 4; op++ {
		d.Write(buf, int64(op)*64)
		d.Flush(int64(op)*64, 64)
		d.Fence() // trailing
		s.OpBoundary()
	}
	s.Close()
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
	s := d.EnterFenceScope()
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
	s.Close()
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
	s := d.EnterFenceScope()
	d.Flush(0, 64)
	d.Fence()
	s.OpBoundary()
	s.Close()
	st := d.Stats()
	if st.Fences != 1 || st.FencesElided != 0 {
		t.Errorf("Fences = %d, FencesElided = %d, want 1, 0", st.Fences, st.FencesElided)
	}
}

// TestFenceScopeNoFence: a scope whose body never fences must not fence
// at Close either.
func TestFenceScopeNoFence(t *testing.T) {
	d := fenceTestDev(t)
	s := d.EnterFenceScope()
	d.Write(make([]byte, 64), 0)
	s.OpBoundary()
	s.Close()
	if st := d.Stats(); st.Fences != 0 || st.FencesElided != 0 {
		t.Errorf("Fences = %d, FencesElided = %d, want 0, 0", st.Fences, st.FencesElided)
	}
}

// TestFenceScopeNested: re-entering the same device's scope nests; only
// the outermost Close fences.
func TestFenceScopeNested(t *testing.T) {
	d := fenceTestDev(t)
	outer := d.EnterFenceScope()
	d.Flush(0, 64)
	d.Fence()
	outer.OpBoundary()
	inner := d.EnterFenceScope()
	if inner != outer {
		t.Fatal("nested entry did not return the outer scope")
	}
	d.Flush(64, 64)
	d.Fence()
	inner.Close()
	if st := d.Stats(); st.Fences != 0 {
		t.Errorf("inner Close fenced: %d", st.Fences)
	}
	outer.OpBoundary()
	outer.Close()
	st := d.Stats()
	if st.Fences != 1 || st.FencesElided != 1 {
		t.Errorf("Fences = %d, FencesElided = %d, want 1, 1", st.Fences, st.FencesElided)
	}
}

// TestFenceScopeOtherDevice: a scope binds one device; another device's
// fences on the same goroutine stay real, and entering the second
// device's scope while the first is attached runs detached.
func TestFenceScopeOtherDevice(t *testing.T) {
	d1 := fenceTestDev(t)
	d2 := fenceTestDev(t)
	s := d1.EnterFenceScope()
	d2.Fence()
	if st := d2.Stats(); st.Fences != 1 {
		t.Errorf("other device's fence absorbed: %d", st.Fences)
	}
	s2 := d2.EnterFenceScope()
	d2.Fence()
	s2.OpBoundary()
	s2.Close()
	if st := d2.Stats(); st.Fences != 2 || st.FencesElided != 0 {
		t.Errorf("detached scope coalesced: Fences %d, elided %d", st.Fences, st.FencesElided)
	}
	d1.Fence()
	s.OpBoundary()
	s.Close()
	if st := d1.Stats(); st.Fences != 1 {
		t.Errorf("d1 Fences = %d, want 1", st.Fences)
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
	allocs := testing.AllocsPerRun(200, func() {
		s := d.EnterFenceScope()
		d.Flush(0, 64)
		d.Fence()
		s.OpBoundary()
		d.Fence()
		s.OpBoundary()
		s.Close()
	})
	if allocs != 0 {
		t.Errorf("scoped fence path allocates %.1f/op, want 0", allocs)
	}
}

// TestResetStatsClearsElided keeps the new counter in the reset set.
func TestResetStatsClearsElided(t *testing.T) {
	d := fenceTestDev(t)
	s := d.EnterFenceScope()
	d.Fence()
	s.OpBoundary()
	d.Fence()
	s.OpBoundary()
	s.Close()
	if st := d.Stats(); st.FencesElided != 1 {
		t.Fatalf("FencesElided = %d, want 1", st.FencesElided)
	}
	d.ResetStats()
	if st := d.Stats(); st.FencesElided != 0 || st.Fences != 0 {
		t.Errorf("counters survive reset: %+v", st)
	}
}
