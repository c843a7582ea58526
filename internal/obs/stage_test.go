package obs

import "testing"

func TestOpCtxChargeAndBreakdown(t *testing.T) {
	var c OpCtx
	c.Reset(0xabcd)
	c.Charge(StageQueue, 100)
	c.Charge(StageQueue, 50)
	c.Charge(StageFlush, 7)
	c.Charge(StageLock, -5) // dropped
	c.Charge(StageLock, 0)  // dropped
	if got := c.StageNS(StageQueue); got != 150 {
		t.Fatalf("queue = %d, want 150", got)
	}
	if got := c.StageNS(StageLock); got != 0 {
		t.Fatalf("lock = %d, want 0 (non-positive charges dropped)", got)
	}
	b := c.Breakdown()
	if b[StageQueue] != 150 || b[StageFlush] != 7 {
		t.Fatalf("breakdown = %v", b)
	}
	if c.Trace != 0xabcd {
		t.Fatalf("trace = %x", c.Trace)
	}

	// Reset clears every stage for reuse.
	c.Reset(1)
	if b := c.Breakdown(); b != ([NumStages]int64{}) {
		t.Fatalf("breakdown after reset = %v", b)
	}

	// Everything is nil-safe.
	var nilCtx *OpCtx
	nilCtx.Reset(1)
	nilCtx.Charge(StageQueue, 1)
	nilCtx.Attach()
	nilCtx.Detach()
	if nilCtx.StageNS(StageQueue) != 0 {
		t.Fatal("nil OpCtx must read as zero")
	}
}

func TestStageNames(t *testing.T) {
	if len(Stages()) != int(NumStages) {
		t.Fatalf("Stages() lists %d, NumStages = %d", len(Stages()), NumStages)
	}
	seen := map[string]bool{}
	for _, st := range Stages() {
		name := st.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("stage %d has bad or duplicate name %q", st, name)
		}
		seen[name] = true
	}
}

func TestAttachDetachCurrent(t *testing.T) {
	if CurrentOp() != nil {
		t.Fatal("no op attached, CurrentOp must be nil")
	}
	var c OpCtx
	c.Reset(42)
	c.Attach()
	if got := CurrentOp(); got != &c {
		t.Fatalf("CurrentOp = %p, want %p", got, &c)
	}
	if got := CurrentTrace(); got != 42 {
		t.Fatalf("CurrentTrace = %d, want 42", got)
	}

	// A different goroutine must not see this goroutine's context.
	done := make(chan *OpCtx)
	go func() { done <- CurrentOp() }()
	if other := <-done; other != nil {
		t.Fatalf("sibling goroutine sees %p", other)
	}

	c.Detach()
	if CurrentOp() != nil {
		t.Fatal("CurrentOp after Detach must be nil")
	}
	if CurrentTrace() != 0 {
		t.Fatal("CurrentTrace after Detach must be 0")
	}
	// Double detach is harmless.
	c.Detach()
}
