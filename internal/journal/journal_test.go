package journal

import (
	"bytes"
	"sync"
	"testing"

	"hinfs/internal/nvmm"
)

const (
	areaBase = 4096
	areaSize = 16 * 4096
	// areaSlots is the area's entry capacity: 63 entries per block.
	areaSlots = areaSize / 4096 * entriesPerBlock
)

func testDev(t *testing.T) *nvmm.Device {
	t.Helper()
	d, err := nvmm.New(nvmm.Config{Size: 4 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newJournal(t *testing.T, dev *nvmm.Device) *Journal {
	t.Helper()
	j, err := New(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestCommitKeepsChanges(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 128 * 4096
	dev.WriteNT([]byte("original"), addr)

	tx := j.Begin()
	tx.LogRange(addr, 8)
	dev.WriteNT([]byte("modified"), addr)
	tx.Commit()

	if _, err := Recover(dev, areaBase, areaSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	dev.Read(got, addr)
	if string(got) != "modified" {
		t.Fatalf("committed change rolled back: %q", got)
	}
}

func TestUncommittedRollsBack(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 128 * 4096
	dev.WriteNT([]byte("original"), addr)

	tx := j.Begin()
	tx.LogRange(addr, 8)
	dev.WriteNT([]byte("modified"), addr)
	// no commit
	rolled, err := Recover(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	if rolled != 1 {
		t.Fatalf("rolled back %d txs, want 1", rolled)
	}
	got := make([]byte, 8)
	dev.Read(got, addr)
	if string(got) != "original" {
		t.Fatalf("uncommitted change kept: %q", got)
	}
}

func TestLargeRangeSpansEntries(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 200 * 4096
	old := bytes.Repeat([]byte("ab"), 100) // 200 bytes > MaxUndoBytes
	dev.WriteNT(old, addr)

	tx := j.Begin()
	tx.LogRange(addr, len(old))
	dev.WriteNT(bytes.Repeat([]byte("zz"), 100), addr)
	rolled, err := Recover(dev, areaBase, areaSize)
	if err != nil || rolled != 1 {
		t.Fatalf("recover: %d, %v", rolled, err)
	}
	got := make([]byte, len(old))
	dev.Read(got, addr)
	if !bytes.Equal(got, old) {
		t.Fatal("multi-entry undo failed")
	}
	_ = tx
}

func TestCrashMidTransactionTornEntryIgnored(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 300 * 4096
	dev.WriteNT([]byte("original"), addr)

	tx := j.Begin()
	tx.LogRange(addr, 8)
	dev.WriteNT([]byte("modified"), addr)
	// Simulate a torn second entry: write body without valid flag by
	// crashing immediately — all flushed entries have valid set, so
	// recovery sees a complete undo entry and rolls back.
	dev.Crash()
	rolled, err := Recover(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	if rolled != 1 {
		t.Fatalf("rolled %d, want 1", rolled)
	}
	got := make([]byte, 8)
	dev.Read(got, addr)
	if string(got) != "original" {
		t.Fatalf("got %q", got)
	}
}

func TestDeferredCommitOrdering(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	tx := j.Begin()
	tx.AddPending(2)
	tx.Seal()
	if tx.Committed() {
		t.Fatal("committed before blocks persisted")
	}
	tx.BlockPersisted()
	if tx.Committed() {
		t.Fatal("committed after 1 of 2 blocks")
	}
	tx.BlockPersisted()
	if !tx.Committed() {
		t.Fatal("not committed after all blocks persisted")
	}
}

func TestSealAfterAllPersisted(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	tx := j.Begin()
	tx.AddPending(1)
	tx.BlockPersisted()
	if tx.Committed() {
		t.Fatal("committed before seal")
	}
	tx.Seal()
	if !tx.Committed() {
		t.Fatal("seal did not commit drained tx")
	}
}

func TestCheckpointWrapsWhenFull(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 400 * 4096
	dev.WriteNT(make([]byte, 4096), addr)
	// Each LogRange(8) uses one entry + one commit entry; fill the area
	// several times over.
	slots := areaSlots
	for i := 0; i < slots*3; i++ {
		tx := j.Begin()
		tx.LogRange(addr, 8)
		tx.Commit()
	}
	if j.Stats().Checkpoints == 0 {
		t.Fatal("journal never checkpointed")
	}
}

func TestConcurrentTransactions(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			addr := int64(500+w) * 4096
			dev.WriteNT(make([]byte, 64), addr)
			for i := 0; i < 10; i++ {
				tx := j.Begin()
				tx.LogRange(addr, 48)
				dev.WriteNT(bytes.Repeat([]byte{byte(i)}, 48), addr)
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	if got := j.Stats().Commits; got != 80 {
		t.Fatalf("commits = %d, want 80", got)
	}
}

func TestRecoverRejectsBadArea(t *testing.T) {
	dev := testDev(t)
	if _, err := Recover(dev, 0, 100); err == nil {
		t.Fatal("bad area size accepted")
	}
	if _, err := New(dev, 0, 100); err == nil {
		t.Fatal("New accepted bad area size")
	}
}

func TestHalfRotationWithDeferredCommits(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 600 * 4096
	dev.WriteNT(make([]byte, 4096), addr)
	// Keep one deferred transaction open, then push enough committed
	// transactions through to force half rotations around it.
	open := j.Begin()
	open.LogRange(addr, 8)
	open.AddPending(1)
	open.Seal()
	// Each tx consumes two slots (reserved commit + one undo entry), so
	// this crosses one half boundary without filling the whole area (the
	// open tx pins its own half).
	half := areaSlots / 2
	for i := 0; i < half*3/5; i++ {
		tx := j.Begin()
		tx.LogRange(addr+64, 8)
		tx.Commit()
	}
	if j.Stats().Checkpoints == 0 {
		t.Fatal("no half rotation despite pressure")
	}
	// The open transaction still commits correctly afterwards.
	open.BlockPersisted()
	if !open.Committed() {
		t.Fatal("deferred tx lost through rotation")
	}
}

func TestPressureCallbackDrainsStall(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 700 * 4096
	dev.WriteNT(make([]byte, 4096), addr)
	// Fill both halves with entries from one open tx per half... simpler:
	// hold open transactions in both halves via interleaving, and rely on
	// the pressure callback to release them — only those begun before its
	// bound, as HiNFS's drain does, so a stall whose bound missed a
	// transaction it waits for would hang here. The callback also fires
	// from the journal's early-nudge goroutine, so held needs a lock.
	var (
		mu   sync.Mutex
		held []*Tx
	)
	release := func(bound uint32) {
		mu.Lock()
		var txs []*Tx
		keep := held[:0]
		for _, tx := range held {
			if tx.BegunBefore(bound) {
				txs = append(txs, tx)
			} else {
				keep = append(keep, tx)
			}
		}
		held = keep
		mu.Unlock()
		for _, tx := range txs {
			tx.BlockPersisted()
		}
	}
	j.SetPressure(release)
	// Open deferred transactions faster than they commit; the journal
	// must invoke the pressure callback rather than deadlock.
	slots := areaSlots
	for i := 0; i < slots*2; i++ {
		tx := j.Begin()
		tx.LogRange(addr, 8)
		tx.AddPending(1)
		tx.Seal()
		mu.Lock()
		held = append(held, tx)
		n := len(held)
		mu.Unlock()
		if n > 64 {
			// In HiNFS the background writeback drains these; here the
			// pressure callback does when the journal stalls.
			if j.Stats().Stalls > 0 {
				break
			}
		}
	}
	release(j.nextID.Load() + 1)
	if j.Stats().Checkpoints == 0 {
		t.Fatal("journal never rotated under sustained deferred load")
	}
}

func TestLogRangeOnCommittedPanics(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	tx := j.Begin()
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on LogRange after commit")
		}
	}()
	tx.LogRange(0, 8)
}
