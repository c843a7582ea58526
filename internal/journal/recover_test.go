package journal

import (
	"encoding/binary"
	"testing"

	"hinfs/internal/nvmm"
)

// TestRollbackReverseSequenceAcrossTxs pins the global rollback order:
// two uncommitted transactions logged overlapping undo images for the
// same range, and recovery must land on the *oldest* pre-image — i.e.
// apply the newest undo first — regardless of txid or map iteration
// order.
func TestRollbackReverseSequenceAcrossTxs(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 128 * 4096
	dev.WriteNT([]byte("AAAAAAAA"), addr)

	tx1 := j.Begin()
	tx1.LogRange(addr, 8) // undo image "AAAAAAAA"
	dev.WriteNT([]byte("BBBBBBBB"), addr)
	tx2 := j.Begin()
	tx2.LogRange(addr, 8) // undo image "BBBBBBBB"
	dev.WriteNT([]byte("CCCCCCCC"), addr)
	// Neither commits; crash.
	dev.Crash()

	rolled, err := Recover(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	if rolled != 2 {
		t.Fatalf("rolled %d txs, want 2", rolled)
	}
	got := make([]byte, 8)
	dev.Read(got, addr)
	if string(got) != "AAAAAAAA" {
		t.Fatalf("rollback order wrong: got %q, want AAAAAAAA", got)
	}
}

// TestBitmapUndoCommutes pins the logical bitmap undo: an uncommitted
// transaction's bit toggles are XOR-reverted without clobbering bits a
// *later committed* transaction set in the same word.
func TestBitmapUndoCommutes(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 128 * 4096
	var w [8]byte
	dev.WriteNT(w[:], addr) // word = 0

	write := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		dev.WriteNT(w[:], addr)
	}
	read := func() uint64 {
		dev.Read(w[:], addr)
		return binary.LittleEndian.Uint64(w[:])
	}

	// txA allocates bits 0-3 and stays open.
	txA := j.Begin()
	txA.LogBitmap(addr, 0x0f)
	write(read() ^ 0x0f)
	// txB allocates bits 4-7 in the same word and commits.
	txB := j.Begin()
	txB.LogBitmap(addr, 0xf0)
	write(read() ^ 0xf0)
	txB.Commit()

	dev.Crash()
	rolled, err := Recover(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	if rolled != 1 {
		t.Fatalf("rolled %d txs, want 1 (txA only)", rolled)
	}
	if got := read(); got != 0xf0 {
		t.Fatalf("word = %#x after rollback, want 0xf0 (txB's committed bits intact)", got)
	}
	_ = txA
}

// TestAfterChainsCommitRecords pins commit chaining: a transaction whose
// commit is requested before its predecessor's must not have a durable
// commit record until the predecessor commits.
func TestAfterChainsCommitRecords(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 128 * 4096
	dev.WriteNT([]byte("old-old-"), addr)

	tx1 := j.Begin()
	tx1.LogRange(addr, 8)
	dev.WriteNT([]byte("mid-mid-"), addr)
	tx2 := j.Begin()
	tx2.After(tx1)
	tx2.LogRange(addr, 8)
	dev.WriteNT([]byte("new-new-"), addr)

	// tx2's commit is requested first; the record must wait on tx1.
	tx2.Commit()
	if !tx2.Committed() {
		t.Fatal("commit request not acknowledged")
	}
	// Crash now: neither record durable, both roll back to the oldest image.
	img := snapshotArea(dev)
	restoreCrash(t, dev, img, addr, "old-old-", 2)

	// Now let tx1 commit: both records are written, in order, and both
	// transactions' entries are retired.
	tx1.Commit()
	if res := j.Residue(); len(res) != 0 {
		t.Fatalf("residue after chained commits: %v", res)
	}
}

// snapshotArea copies the whole device image so a destructive crash check
// can run mid-test and be undone.
func snapshotArea(dev *nvmm.Device) []byte {
	img := make([]byte, dev.Size())
	dev.Read(img, 0)
	return img
}

// restoreCrash crashes the device, recovers it and verifies the rollback,
// then restores the pre-crash image.
func restoreCrash(t *testing.T, dev *nvmm.Device, img []byte, addr int64, want string, wantRolled int) {
	t.Helper()
	// Crash destroys the volatile state; run the check, then restore.
	dev.Crash()
	rolled, err := Recover(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	if rolled != wantRolled {
		t.Fatalf("rolled %d txs, want %d", rolled, wantRolled)
	}
	got := make([]byte, 8)
	dev.Read(got, addr)
	if string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	// Restore the pre-crash image (data only; recovery zeroed the journal
	// area on the durable side too, so put the original bytes back).
	dev.Write(img, 0)
	dev.Flush(0, len(img))
	dev.Fence()
}

// TestEagerInvalidationRetiresEntries pins the commit-time cleanup: after
// a transaction commits, no valid entries for it remain in the log.
func TestEagerInvalidationRetiresEntries(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 128 * 4096
	dev.WriteNT(make([]byte, 64), addr)

	tx := j.Begin()
	tx.LogRange(addr, 40)
	tx.LogBitmap(addr+64, 0xff)
	tx.Commit()
	if res := j.Residue(); len(res) != 0 {
		t.Fatalf("committed tx left residue: %v", res)
	}
	// An open transaction's entries are not residue.
	open := j.Begin()
	open.LogRange(addr, 8)
	if res := j.Residue(); len(res) != 0 {
		t.Fatalf("open tx reported as residue: %v", res)
	}
	open.Commit()
}

// TestRecoverIdempotent is the recovery idempotency contract: recovering,
// crashing again with no new activity, and recovering again must roll
// back zero transactions the second time.
func TestRecoverIdempotent(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 128 * 4096
	dev.WriteNT([]byte("original"), addr)

	tx := j.Begin()
	tx.LogRange(addr, 8)
	dev.WriteNT([]byte("modified"), addr)
	dev.Crash()

	rolled, err := Recover(dev, areaBase, areaSize)
	if err != nil || rolled != 1 {
		t.Fatalf("first recover: %d, %v", rolled, err)
	}
	// Power loss immediately after recovery, before any new activity.
	dev.Crash()
	rolled, err = Recover(dev, areaBase, areaSize)
	if err != nil {
		t.Fatal(err)
	}
	if rolled != 0 {
		t.Fatalf("second recover rolled back %d txs, want 0", rolled)
	}
	got := make([]byte, 8)
	dev.Read(got, addr)
	if string(got) != "original" {
		t.Fatalf("state drifted across idempotent recovery: %q", got)
	}
}

// TestReusedHalvesRecoverOnlyOpenTxs runs committed, deferred, After-chained
// and still-open transactions through several rotations of a lane whose
// halves are one block each, and crashes at every persist event. A half is
// reused without being cleared, so what keeps a retired transaction's
// entries out of recovery is writeRecord's invalidation alone: every image
// must recover each word to the value of its last committed writer — a
// committed transaction is never rolled back, an open one always is.
func TestReusedHalvesRecoverOnlyOpenTxs(t *testing.T) {
	const (
		base     = 4096
		size     = 2 * 4096 // one lane, two one-block halves of 64 slots
		dataBase = base + size
		steps    = 120
	)
	// Each transaction writes one 8-byte word (a chained one the word of
	// the transaction it follows) from whatever it held to a value of its
	// own; every fourth logs a two-entry range around its word.
	type txRec struct {
		word     int
		val      uint64
		from, to int64 // persist events of the call that wrote the record
	}
	word := func(w int) int64 { return dataBase + int64(w)*64 }
	// run replays the scenario with a crash plan armed at event target and
	// returns each transaction's record window (0, 0 if never written).
	run := func(target int64) ([]txRec, *nvmm.CrashState, Stats) {
		dev, err := nvmm.New(nvmm.Config{Size: 64 << 10, TrackPersistence: true})
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewLanes(dev, base, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetCrashPlan(func(ev int64, _ nvmm.EventKind) bool { return ev == target })
		var recs []txRec
		var txs []*Tx
		// call runs f and stamps the window on every record f wrote.
		call := func(f func()) {
			from := dev.PersistEvents()
			f()
			to := dev.PersistEvents()
			for i, tx := range txs {
				if tx.recorded && recs[i].to == 0 {
					recs[i].from, recs[i].to = from, to
				}
			}
		}
		begin := func(w int, n int) *Tx {
			tx := j.Begin()
			val := uint64(len(txs) + 1)
			tx.LogRange(word(w), n)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], val)
			dev.Write(b[:], word(w))
			dev.Flush(word(w), 8)
			txs = append(txs, tx)
			recs = append(recs, txRec{word: w, val: val})
			return tx
		}
		var deferred []*Tx
		for i := 0; i < steps; i++ {
			switch i % 4 {
			case 0: // committed at once
				tx := begin(i, 8)
				call(tx.Commit)
			case 1: // deferred on one pending block, persisted a few steps on
				tx := begin(i, 8)
				tx.AddPending(1)
				call(tx.Seal)
				deferred = append(deferred, tx)
			case 2: // chained behind the deferred one, on its word
				prev := txs[len(txs)-1]
				tx := begin(recs[len(recs)-1].word, 8)
				tx.After(prev)
				call(tx.Commit)
			case 3: // two entries
				tx := begin(i, 48)
				call(tx.Commit)
			}
			if len(deferred) > 2 {
				call(deferred[0].BlockPersisted)
				deferred = deferred[1:]
			}
		}
		// Left open: the last deferred ones (and the chain behind them),
		// and transactions that never ask to commit.
		for i := 0; i < 3; i++ {
			begin(steps+i, 8)
		}
		return recs, dev.TakeCrashState(), j.Stats()
	}
	recs, _, st := run(0)
	if st.Checkpoints < 3 {
		t.Fatalf("the scenario rotated %d times, want at least 3", st.Checkpoints)
	}
	open := 0
	for _, r := range recs {
		if r.to == 0 {
			open++
		}
	}
	if open < 5 {
		t.Fatalf("only %d transactions left open", open)
	}
	for ev := int64(1); ; ev++ {
		_, state, _ := run(ev)
		if state == nil {
			break
		}
		for _, seed := range []uint64{0, 0x9E3779B97F4A7C15} {
			dev, err := state.Materialize(nvmm.Config{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(dev, base, size); err != nil {
				t.Fatalf("event %d seed %#x: %v", ev, seed, err)
			}
			// A word may read the value of its last writer whose record was
			// durable before the crash, or of a later one whose record was
			// being written at it.
			allowed := map[int]map[uint64]bool{}
			for _, r := range recs {
				m := allowed[r.word]
				if m == nil {
					m = map[uint64]bool{0: true}
					allowed[r.word] = m
				}
				switch {
				case r.to != 0 && r.to < ev: // durable
					allowed[r.word] = map[uint64]bool{r.val: true}
				case r.to != 0 && r.from < ev: // in flight
					m[r.val] = true
				}
			}
			for w, vals := range allowed {
				var b [8]byte
				dev.Read(b[:], word(w))
				if got := binary.LittleEndian.Uint64(b[:]); !vals[got] {
					t.Fatalf("event %d (%s) seed %#x: word %d recovered as %d, want one of %v",
						ev, state.Kind(), seed, w, got, vals)
				}
			}
		}
	}
}
