package journal

import (
	"bytes"
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

// TestCommittedTxLeavesNoResidue: retiring a committed transaction writes
// nothing, so its entries stay in the log, valid, beside its commit record.
// They are not residue and recovery rolls back nothing, before its lane half
// is reused and after every lane has rotated through both halves several
// times (the stamp makes the entries stale, new entries overwrite some).
func TestCommittedTxLeavesNoResidue(t *testing.T) {
	dev := testDev(t)
	j := newJournal(t, dev)
	const addr = 128 * 4096
	dev.WriteNT(make([]byte, 128), addr)

	tx := j.Begin()
	tx.LogRange(addr, 40)
	tx.LogBitmap(addr+64, 0xff)
	dev.WriteNT([]byte("committed"), addr)
	dev.WriteNT([]byte{0xff}, addr+64)
	tx.Commit()
	check := func(when string) {
		t.Helper()
		if res := j.Residue(); len(res) != 0 {
			t.Fatalf("%s: committed tx left residue: %v", when, res)
		}
		// Recover a copy of the image: nothing rolls back.
		img := snapshotArea(dev)
		cp, err := nvmm.New(nvmm.Config{Size: dev.Size()})
		if err != nil {
			t.Fatal(err)
		}
		cp.Write(img, 0)
		if rolled, err := Recover(cp, areaBase, areaSize); err != nil || rolled != 0 {
			t.Fatalf("%s: recovery rolled back %d txs (%v), want 0", when, rolled, err)
		}
		got := make([]byte, 65)
		cp.Read(got, addr)
		if string(got[:9]) != "committed" || got[64] != 0xff {
			t.Fatalf("%s: recovered %q / %#x", when, got[:9], got[64])
		}
	}
	check("before reuse")
	for i := 0; i < 3*areaSlots; i++ { // six laps of the area
		tx := j.Begin()
		tx.LogRange(addr+128, 8)
		tx.Commit()
	}
	if c := j.Stats().Checkpoints; c < 4*int64(j.Lanes()) {
		t.Fatalf("%d rotations over %d lanes, want every lane through both halves twice", c, j.Lanes())
	}
	check("after reuse")
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
// reused without being cleared and a retired transaction's entries are never
// rewritten, so what keeps them out of recovery is the generation stamp each
// rotation writes into the reused half's block headers, and, for a
// transaction whose entries straddle a rotation, its commit record following
// its last entry into the newer half. Every image must recover each word to
// the value of its last committed writer — a committed transaction is never
// rolled back, an open one always is.
func TestReusedHalvesRecoverOnlyOpenTxs(t *testing.T) {
	const (
		base     = 4096
		size     = 2 * 4096 // one lane, two one-block halves of 63 slots
		dataBase = base + size
		steps    = 120
	)
	// Each transaction writes one 8-byte word (a chained one the word of
	// the transaction it follows) from whatever it held to a value of its
	// own; every fourth logs a two-entry range around its word. Every
	// fortieth step adds a straddler: a deferred transaction that fills the
	// rest of the current half and logs one entry past it, writing its value
	// at both ends of its range, so the head's undo sits in the older half
	// and the tail's in the newer one.
	type txRec struct {
		at, tail int64 // the words written (tail 0: none)
		val      uint64
		from, to int64 // persist events of the call that wrote the record
	}
	word := func(w int) int64 { return dataBase + int64(w)*64 }
	straddle := func(k int) int64 { return word(200) + int64(k)*4096 } // clear of every word
	dev, err := nvmm.New(nvmm.Config{Size: 64 << 10, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewLanes(dev, base, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	history := dev.Record()
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
	put := func(at int64, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		dev.Write(b[:], at)
		dev.Flush(at, 8)
	}
	begin := func(at int64, n int) *Tx {
		tx := j.Begin()
		val := uint64(len(txs) + 1)
		tx.LogRange(at, n)
		put(at, val)
		txs = append(txs, tx)
		recs = append(recs, txRec{at: at, val: val})
		return tx
	}
	var deferred []*Tx
	for i := 0; i < steps; i++ {
		switch i % 4 {
		case 0: // committed at once
			tx := begin(word(i), 8)
			call(tx.Commit)
		case 1: // deferred on one pending block, persisted a few steps on
			tx := begin(word(i), 8)
			tx.AddPending(1)
			call(tx.Seal)
			deferred = append(deferred, tx)
		case 2: // chained behind the deferred one, on its word
			prev := txs[len(txs)-1]
			tx := begin(recs[len(recs)-1].at, 8)
			tx.After(prev)
			call(tx.Commit)
		case 3: // two entries
			tx := begin(word(i), 48)
			call(tx.Commit)
		}
		if i%40 == 13 { // the next step chains behind it
			for _, tx := range deferred { // nothing open pins the other half
				call(tx.BlockPersisted)
			}
			h := &j.lanes[0].halves[j.lanes[0].cur]
			n := (h.count - h.next) * MaxUndoBytes // the rest of the half, less the commit slot, plus one
			tx := begin(straddle(i/40), n)
			put(straddle(i/40)+int64(n)-8, recs[len(recs)-1].val)
			recs[len(recs)-1].tail = straddle(i/40) + int64(n) - 8
			if !tx.touched[0] || !tx.touched[1] {
				t.Fatalf("step %d: the straddler stayed in one half", i)
			}
			tx.AddPending(1)
			call(tx.Seal)
			deferred = []*Tx{tx}
		}
		if len(deferred) > 2 {
			call(deferred[0].BlockPersisted)
			deferred = deferred[1:]
		}
	}
	// Left open: the last deferred ones (and the chain behind them),
	// and transactions that never ask to commit.
	for i := 0; i < 3; i++ {
		begin(word(steps+i), 8)
	}
	if c := j.Stats().Checkpoints; c < 5 {
		t.Fatalf("the scenario rotated %d times, want at least 5", c)
	}
	open, straddlers := 0, 0
	for _, r := range recs {
		if r.to == 0 {
			open++
		}
		if r.tail != 0 {
			straddlers++
		}
	}
	if open < 5 || straddlers != 3 {
		t.Fatalf("%d transactions left open, %d straddlers; want at least 5 and 3", open, straddlers)
	}
	history.Walk(func(state *nvmm.CrashState) {
		ev := state.Event()
		for _, seed := range []uint64{0, 0x9E3779B97F4A7C15} {
			dev, err := state.Materialize(seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(dev, base, size); err != nil {
				t.Fatalf("event %d seed %#x: %v", ev, seed, err)
			}
			// A word may read the value of its last writer whose record was
			// durable before the crash, or of a later one whose record was
			// being written at it.
			allowed := map[int64]map[uint64]bool{}
			for _, r := range recs {
				for _, at := range []int64{r.at, r.tail} {
					if at == 0 {
						continue
					}
					m := allowed[at]
					if m == nil {
						m = map[uint64]bool{0: true}
						allowed[at] = m
					}
					switch {
					case r.to != 0 && r.to < ev: // durable
						allowed[at] = map[uint64]bool{r.val: true}
					case r.to != 0 && r.from < ev: // in flight
						m[r.val] = true
					}
				}
			}
			for at, vals := range allowed {
				var b [8]byte
				dev.Read(b[:], at)
				if got := binary.LittleEndian.Uint64(b[:]); !vals[got] {
					t.Fatalf("event %d (%s) seed %#x: word at %d recovered as %d, want one of %v",
						ev, state.Kind(), seed, at, got, vals)
				}
			}
		}
	})
}

// TestTornStampKeepsCommittedTx crashes at every persist event of a rotation
// into a half of two blocks, where a committed transaction's record sits in
// the first block and its last entry in the second. A crash between the two
// header flushes leaves the first block stamped and the second not: the
// record is stale there while the entry still reads as live. Recovery must
// count a stale commit record, or it rolls the committed transaction back.
func TestTornStampKeepsCommittedTx(t *testing.T) {
	const (
		base = 4096
		size = 4 * 4096 // one lane, two two-block halves of 126 slots
		data = base + size
		word = data + 4096
		n    = entriesPerBlock * MaxUndoBytes // 63 entries: the last one in block 1
	)
	newData := bytes.Repeat([]byte{0xAB}, n)
	dev, err := nvmm.New(nvmm.Config{Size: 64 << 10, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewLanes(dev, base, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	history := dev.Record()
	tx := j.Begin()
	tx.LogRange(data, n)
	dev.Write(newData, data)
	dev.Flush(data, n)
	tx.Commit()
	// One-entry transactions until the lane rotates back into its first
	// half; (from, to] is the window of the one that rotated.
	var from, to int64
	for j.Stats().Checkpoints < 2 {
		from = dev.PersistEvents()
		tx := j.Begin()
		tx.LogRange(word, 8)
		tx.Commit()
		to = dev.PersistEvents()
	}
	torn := 0
	history.Walk(func(state *nvmm.CrashState) {
		ev := state.Event()
		if ev <= from || ev > to {
			return
		}
		for seed := uint64(0); seed < 8; seed++ {
			dev, err := state.Materialize(seed)
			if err != nil {
				t.Fatal(err)
			}
			var h0, h1 [8]byte
			dev.Read(h0[:], base)
			dev.Read(h1[:], base+4096)
			if !bytes.Equal(h0[:], h1[:]) {
				torn++
			}
			if _, err := Recover(dev, base, size); err != nil {
				t.Fatalf("event %d seed %d: %v", ev, seed, err)
			}
			got := make([]byte, n)
			dev.Read(got, data)
			if !bytes.Equal(got, newData) {
				t.Fatalf("event %d (%s) seed %d: the committed transaction was rolled back", ev, state.Kind(), seed)
			}
		}
	})
	if torn == 0 {
		t.Fatal("no crash image held a torn stamp")
	}
}
