package journal

import (
	"runtime"
	"testing"

	"hinfs/internal/cacheline"
)

// TestNewLanesGeometry: the lanes must partition the log area exactly —
// contiguous, non-overlapping, every byte owned by one half — for any lane
// count, including ones that do not divide the area evenly.
func TestNewLanesGeometry(t *testing.T) {
	dev := testDev(t)
	cases := []struct {
		blocks    int64 // area size in blocks
		lanes     int
		wantLanes int
	}{
		{2, 0, 1},   // minimum area: one lane, one block per half
		{2, 8, 1},   // clamp: only one half-block available
		{16, 0, 8},  // default lane count, even split
		{16, 8, 8},  // explicit, even split
		{16, 3, 3},  // uneven: 8 half-blocks over 3 lanes = 3,3,2
		{16, 5, 5},  // uneven: 8 half-blocks over 5 lanes = 2,2,2,1,1
		{16, 16, 8}, // clamp to half-blocks
		{64, 8, 8},
	}
	for _, c := range cases {
		size := c.blocks * cacheline.BlockSize
		j, err := NewLanes(dev, areaBase, size, c.lanes)
		if err != nil {
			t.Fatalf("NewLanes(%d blocks, %d lanes): %v", c.blocks, c.lanes, err)
		}
		if got := j.Lanes(); got != c.wantLanes {
			t.Fatalf("NewLanes(%d blocks, %d lanes) = %d lanes, want %d",
				c.blocks, c.lanes, got, c.wantLanes)
		}
		off := int64(areaBase)
		for i, ln := range j.lanes {
			for h := 0; h < 2; h++ {
				if ln.halves[h].base != off {
					t.Fatalf("%d blocks/%d lanes: lane %d half %d base = %d, want %d",
						c.blocks, c.lanes, i, h, ln.halves[h].base, off)
				}
				// Whole blocks, each a header line and 63 entries.
				n := ln.halves[h].count
				if n < entriesPerBlock || n%entriesPerBlock != 0 {
					t.Fatalf("%d blocks/%d lanes: lane %d half %d holds %d entries, not a positive multiple of %d",
						c.blocks, c.lanes, i, h, n, entriesPerBlock)
				}
				off += int64(n/entriesPerBlock) * cacheline.BlockSize
				if ln.halves[h].end() != off {
					t.Fatalf("%d blocks/%d lanes: lane %d half %d ends at %d, want %d",
						c.blocks, c.lanes, i, h, ln.halves[h].end(), off)
				}
			}
		}
		if off != areaBase+size {
			t.Fatalf("%d blocks/%d lanes: lanes cover [%d, %d), want [%d, %d)",
				c.blocks, c.lanes, int64(areaBase), off, int64(areaBase), areaBase+size)
		}
	}
}

// TestNewLanesRejectsBadSize: the area must stay a positive multiple of two
// blocks regardless of lane count.
func TestNewLanesRejectsBadSize(t *testing.T) {
	dev := testDev(t)
	if _, err := NewLanes(dev, areaBase, cacheline.BlockSize, 4); err == nil {
		t.Fatal("single-block area accepted")
	}
	if _, err := NewLanes(dev, areaBase, 3*cacheline.BlockSize, 2); err == nil {
		t.Fatal("odd-block area accepted")
	}
}

// TestResidueLaneAttribution: Residue reports valid entries not owned by
// any open transaction, attributed to the lane holding their slot. Open
// transactions' entries are excluded; a journal instance that never began
// them (fresh mount over the same area) sees them all. Begin assigns lanes
// round-robin, so consecutive Begins land on distinct lanes.
func TestResidueLaneAttribution(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 256 * 4096
	const txs = 4
	ids := make(map[uint32]bool)
	for i := 0; i < txs; i++ {
		tx := j.Begin()
		tx.LogRange(addr+int64(i)*64, 8)
		ids[tx.id] = true
	}
	// The writing journal holds all four open: nothing is residue.
	if res := j.Residue(); len(res) != 0 {
		t.Fatalf("live journal reported %d residue entries, want 0", len(res))
	}
	// A fresh instance over the same area has no open transactions, so
	// every durable entry is residue — with lane attribution.
	j, err := New(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	res := j.Residue()
	if len(res) < txs {
		t.Fatalf("Residue reported %d entries, want >= %d", len(res), txs)
	}
	seen := make(map[uint32]bool)
	lanes := make(map[int]bool)
	for _, e := range res {
		if e.Lane < 0 || e.Lane >= j.Lanes() {
			t.Fatalf("entry at %#x attributed to lane %d (journal has %d)", e.Slot, e.Lane, j.Lanes())
		}
		ln := j.lanes[e.Lane]
		lo, hi := ln.halves[0].base, ln.halves[1].end()
		slotAddr := int64(areaBase) + int64(e.Slot)*EntrySize
		if slotAddr < lo || slotAddr >= hi {
			t.Fatalf("entry %d (addr %#x) attributed to lane %d spanning [%#x, %#x)",
				e.Slot, slotAddr, e.Lane, lo, hi)
		}
		if e.Kind == kindUndo {
			seen[e.TxID] = true
			lanes[e.Lane] = true
		}
	}
	for id := range ids {
		if !seen[id] {
			t.Fatalf("open tx %d missing from residue", id)
		}
	}
	if len(lanes) < 2 {
		t.Fatalf("round-robin Begin left all residue in %d lane(s)", len(lanes))
	}
}

// TestCrossLaneRollbackOrder: two uncommitted transactions on different
// lanes undo-log the same address in sequence. Rollback must apply undos in
// reverse *global* sequence order — newest first — or the older pre-image
// would not win. A per-lane scan that ignored the global sequence could
// apply them in either order.
func TestCrossLaneRollbackOrder(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	if j.Lanes() < 2 {
		t.Fatalf("journal has %d lanes, test needs >= 2", j.Lanes())
	}
	const addr = 300 * 4096
	dev.WriteNT([]byte("AAAAAAAA"), addr)

	tx1 := j.Begin()
	tx2 := j.Begin()
	if tx1.ln == tx2.ln {
		t.Fatal("consecutive Begins assigned the same lane")
	}
	tx1.LogRange(addr, 8) // pre-image AAAAAAAA, logged first (lower seq)
	dev.WriteNT([]byte("BBBBBBBB"), addr)
	tx2.LogRange(addr, 8) // pre-image BBBBBBBB, logged second (higher seq)
	dev.WriteNT([]byte("CCCCCCCC"), addr)

	rolled, err := Recover(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	if rolled != 2 {
		t.Fatalf("recovered %d txs, want 2", rolled)
	}
	got := make([]byte, 8)
	dev.Read(got, addr)
	if string(got) != "AAAAAAAA" {
		t.Fatalf("cross-lane rollback applied out of order: %q, want AAAAAAAA", got)
	}
}

// TestEarlyNudgeIsSingleFlight: lanes fill round-robin, so all eight pass 3/4
// within eight Begins of each other. While one nudge is running the callback
// the other seven crossings must not start their own — HiNFS wires the
// callback to a walk of the whole pool — and once it has returned the next crossing
// nudges again. Stats.PressureCalls counts the invocations.
func TestEarlyNudgeIsSingleFlight(t *testing.T) {
	j := newJournal(t, testDev(t))
	entered := make(chan struct{}, 2*DefaultLanes) // never blocks the callback
	release := make(chan struct{})
	j.SetPressure(func(uint32) {
		entered <- struct{}{}
		<-release
	})
	if j.Lanes() != DefaultLanes {
		t.Fatalf("%d lanes, want %d", j.Lanes(), DefaultLanes)
	}
	half := j.lanes[0].halves[0].count
	for i := 0; i < j.Lanes()*half*3/4; i++ {
		j.Begin().Commit() // one slot each: the reserved commit record
	}
	<-entered
	close(release)
	for j.nudging.Load() {
		runtime.Gosched()
	}
	for i := 0; i < 1000; i++ { // let any nudge that should not exist run too
		runtime.Gosched()
	}
	if n := j.Stats().PressureCalls; n != 1 {
		t.Fatalf("%d pressure calls for one round of crossings, want 1", n)
	}
	for i := 0; i < j.Lanes()*half; i++ { // fill this half, pass 3/4 of the other
		j.Begin().Commit()
	}
	<-entered
	if n := j.Stats().PressureCalls; n < 2 {
		t.Fatalf("%d pressure calls after a second round of crossings, want at least 2", n)
	}
}

// TestNudgeBoundCoversOlderHalf: when the half a lane fills passes 3/4, the
// nudge's bound — the first txid of that half — must cover every transaction
// that holds the other half, which the lane reuses next: one begun and left
// open there, and one begun there that logs only after the rotation (its
// commit slot moves to the new half, its reservation in the old one stays).
// A transaction begun after the rotation holds only the new half and must
// fall outside the bound. Releasing exactly what the bound covers lets the
// lane rotate back without a stall. The scenario runs once from txid 1 and
// once with the txids wrapping past 2^32 between the old half and the
// bound, where a plain comparison orders them backwards.
func TestNudgeBoundCoversOlderHalf(t *testing.T) {
	for _, c := range []struct {
		name  string
		start uint32 // the journal's txid counter before the first Begin
	}{
		{"from-1", 0},
		{"wrapping", 1<<32 - 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := testDev(t)
			j, err := NewLanes(dev, areaBase, 2*cacheline.BlockSize, 1)
			if err != nil {
				t.Fatal(err)
			}
			j.nextID.Store(c.start)
			const addr = 700 * 4096
			ln := j.lanes[0]
			older := j.Begin() // open in half 0, gated on a buffered block
			older.LogRange(addr, 8)
			older.AddPending(1)
			older.Seal()
			straddler := j.Begin() // commit slot in half 0, no entry yet
			for j.Stats().Checkpoints == 0 {
				j.Begin().Commit()
			}
			straddler.LogRange(addr+64, 8) // its first entry lands in half 1
			straddler.AddPending(1)
			straddler.Seal()
			younger := j.Begin() // begun after the rotation
			younger.LogRange(addr+128, 8)
			younger.AddPending(1)
			younger.Seal()
			if c.start != 0 && (older.ID() < 1<<31 || younger.ID() > 1<<31) {
				t.Fatalf("txids %d and %d do not straddle the wrap", older.ID(), younger.ID())
			}
			for nudges := j.Stats().Nudges; j.Stats().Nudges == nudges; {
				j.Begin().Commit()
			}
			bound := j.NudgeBound()
			for _, tx := range []*Tx{older, straddler, younger} {
				if tx.touched[1-ln.cur] && !tx.BegunBefore(bound) {
					t.Fatalf("tx %d holds the half reused next but is not before the nudge bound %d", tx.ID(), bound)
				}
			}
			if !straddler.touched[0] || !straddler.touched[1] {
				t.Fatalf("straddler touched %v, want both halves", straddler.touched)
			}
			if younger.BegunBefore(bound) {
				t.Fatalf("tx %d begun after the rotation is before the nudge bound %d", younger.ID(), bound)
			}
			older.BlockPersisted()
			straddler.BlockPersisted()
			for j.Stats().Checkpoints < 2 {
				j.Begin().Commit()
			}
			if s := j.Stats().Stalls; s != 0 {
				t.Fatalf("%d stalls: releasing what the bound covers did not free the older half", s)
			}
			younger.BlockPersisted()
			if !younger.Committed() {
				t.Fatal("younger transaction lost")
			}
		})
	}
}

// TestNudgeBoundOrderWraps: BegunBefore orders txids by the sign of their
// 32-bit difference, so the order survives the counter wrapping.
func TestNudgeBoundOrderWraps(t *testing.T) {
	for _, c := range []struct {
		id, bound uint32
		want      bool
	}{
		{4, 5, true},
		{5, 5, false},
		{6, 5, false},
		{1<<32 - 1, 0, true},
		{1<<32 - 2, 3, true},
		{0, 1<<32 - 1, false},
		{3, 1<<32 - 2, false},
		{1<<31 - 1, 1 << 31, true},
	} {
		if got := (&Tx{id: c.id}).BegunBefore(c.bound); got != c.want {
			t.Errorf("tx %d begun before %d = %v, want %v", c.id, c.bound, got, c.want)
		}
	}
}
