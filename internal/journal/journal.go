// Package journal implements PMFS-style metadata undo logging on an NVMM
// device region (paper §4.1).
//
// Each log entry is exactly one cacheline (64 B). An entry carries up to 40
// bytes of the *old* contents of a metadata range (undo image), an 8-byte
// XOR mask for one allocation-bitmap word, or marks a transaction commit.
// The last byte of every entry is a valid flag written after the rest of
// the entry; because stores within one cacheline are never reordered by the
// cache hierarchy, a set valid flag guarantees the entry is complete.
// Recovery rolls back every transaction that has logged entries but no
// commit entry, applying physical undo images in reverse global sequence
// order (each entry carries a monotonic sequence number) and bitmap masks
// by XOR, which is order-independent — so interleaved transactions on
// overlapping metadata unwind correctly.
//
// The log area is divided into independent *lanes* (NOVA-style per-CPU
// journals): each lane has its own mutex, its own ping-pong halves and its
// own entry allocation, so concurrent transactions on different lanes never
// contend for slot space. A transaction is assigned a lane at Begin
// (round-robin) and logs every entry there. Correctness across lanes hangs
// on two global atomics: the transaction id (unique across lanes, so a
// commit record is unambiguous) and the entry sequence number (stamped into
// every entry, so Recover can merge all lanes and roll back in reverse
// global order no matter where entries landed).
//
// HiNFS's ordered-mode coupling (data blocks must be durable before the
// commit record of the transaction that made them visible) is supported by
// deferred commits: a transaction may be left open with pending block
// references and committed later by whichever path persists its last data
// block (fsync or the background writeback threads). Deferred commits can
// finish out of begin order; when two transactions touch the same inode's
// metadata that would make rollback unsound, so Tx.After chains a
// transaction's commit record behind its predecessor's.
//
// Because deferred transactions stay open for seconds, each lane is managed
// as two ping-pong halves of whole 4 KiB blocks: entries fill one half while
// the other drains, and a half is reused once no open transaction has
// entries in it. Retiring a committed transaction writes nothing: its
// entries stay in the log, still valid, until their half is reused. Line 0
// of every block is a header holding the global sequence value at which the
// block's current generation began; the other 63 lines are entries, and an
// entry is live only when its valid byte is set and its sequence is above
// its block's header. Rotating into a half stamps every header of that half
// with the current sequence (one line per 63 entries, one fence) before any
// slot there is handed out, which retires everything the half held in bulk.
// A commit record must never die before its entries, so a transaction whose
// entries spill into the other half takes a fresh commit slot there: its
// record lives in the half of its last entry, which is reused last.
// Every transaction reserves its commit slot before it logs into a half, so
// writing a commit record never blocks — only new undo logging can stall on
// a full lane, and the registered pressure callback (HiNFS wires it to the
// write buffer's flusher) accelerates draining. The callback gets a bound:
// only transactions begun before it can hold the half that must be reused
// next (see Tx.BegunBefore).
package journal

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/cacheline"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
)

// EntrySize is the size of one log entry: a single cacheline.
const EntrySize = cacheline.Size

// MaxUndoBytes is the undo payload capacity of one entry.
const MaxUndoBytes = 40

// DefaultLanes is the default lane count. Eight lanes keep contention low
// at the thread counts the harness sweeps while leaving each lane's halves
// large enough that deferred commits rarely pin a rotation.
const DefaultLanes = 8

// Entry kinds.
const (
	kindUndo   = 1
	kindCommit = 2
	kindBitmap = 3
)

// Entry layout within the 64-byte cacheline:
//
//	[0:4)   txid (uint32)
//	[4:12)  addr (uint64 device offset of the undone range / bitmap word)
//	[12]    length of undo data (<= 40; always 8 for bitmap entries)
//	[13]    kind
//	[14:54) undo data (40 bytes; bitmap entries hold the XOR mask in [14:22))
//	[54:62) global sequence number (uint64), orders rollback
//	[62]    reserved
//	[63]    valid flag, written last
const (
	offTxid  = 0
	offAddr  = 4
	offLen   = 12
	offKind  = 13
	offData  = 14
	offSeq   = 54
	offValid = 63
)

// Block header layout: line 0 of every log block.
//
//	[0:8)   generation stamp (uint64): the global sequence value when the
//	        block's current generation began; an entry is live only above it
//	[8:64)  zero (the valid byte stays clear, so an unstamped reading of
//	        the area sees no entry here)
const offGen = 0

// linesPerBlock is the number of cachelines in one log block, the header
// included; entriesPerBlock is how many of them hold entries.
const (
	linesPerBlock   = cacheline.BlockSize / EntrySize
	entriesPerBlock = linesPerBlock - 1
)

// half is one ping-pong region of a lane: whole blocks, each a header line
// and entriesPerBlock entry slots.
type half struct {
	base  int64 // device offset
	count int   // entry capacity
	next  int   // next free slot
	live  int   // open transactions with entries or a commit slot here
	// first is the first txid handed out after the lane rotated into this
	// half: a transaction with a later id took its lane lock after that
	// rotation, so it never held the other half. Zero before the first
	// rotation, when the other half holds nothing.
	first uint32
}

// slot returns the device address of entry slot s: slots skip line 0 of
// every block, the block's header.
func (h *half) slot(s int) int64 {
	return h.base + int64(s/entriesPerBlock)*cacheline.BlockSize + int64(1+s%entriesPerBlock)*EntrySize
}

// end returns the device offset just past the half.
func (h *half) end() int64 {
	return h.base + int64(h.count/entriesPerBlock)*cacheline.BlockSize
}

// lane is one independent slice of the log area with its own lock, its own
// ping-pong halves and its own set of open transactions.
type lane struct {
	mu     sync.Mutex
	halves [2]half
	cur    int
	open   map[uint32]struct{} // txids begun on this lane, not yet retired
}

// Journal manages the log area on the device.
type Journal struct {
	dev *nvmm.Device

	base int64
	size int64

	lanes    []*lane
	nextLane atomic.Uint64 // round-robin lane assignment
	nextID   atomic.Uint32 // global txid allocation

	// depMu guards the commit-chaining state (Tx.waiting/ready/recorded/
	// waiters). Never held during device I/O.
	depMu sync.Mutex

	seq atomic.Uint64 // global entry sequence, stamps rollback order

	// pressure, if set, is invoked (without any lane lock) when the log is
	// under space pressure, to accelerate deferred-commit draining.
	pressure atomic.Value // func(bound uint32)
	// nudging is set while an early nudge (a half passing 3/4 full) runs the
	// callback: lanes fill round-robin and cross that mark together, and one
	// drain serves them all.
	nudging atomic.Bool
	// nudgeBound is the bound the latest nudge passed (see NudgeBound).
	nudgeBound atomic.Uint32

	// col, if set, receives lane-contention counter increments.
	col atomic.Pointer[obs.Collector]

	entriesLogged atomic.Int64
	commits       atomic.Int64
	checkpoints   atomic.Int64
	stalls        atomic.Int64
	nudges        atomic.Int64
	laneContended atomic.Int64
	pressureCalls atomic.Int64
}

// Tx is an open transaction. A Tx is created by Begin, fills undo entries
// via LogRange/LogBitmap, and finishes with Commit or with deferred commit
// via AddPending/Seal/BlockPersisted. After chains the commit record behind
// another transaction's.
//
// The Tx is the one allocation on the journal hot path, so its fields are
// grouped to fit the 80-byte size class: bytes allocated per op are what
// the collector has to keep up with.
// It is not pooled, deliberately: deferred commits and After-chains hold
// *Tx pointers for unbounded time, so reuse would alias a live chain.
type Tx struct {
	j          *Journal
	ln         *lane
	commitSlot int64 // device address reserved for the commit record
	id         uint32
	touched    [2]bool // lane halves holding this tx's entries or commit slot
	commitHalf uint8   // the lane half of commitSlot
	// ready and recorded are commit-chaining state, guarded by j.depMu.
	ready    bool // commit requested while predecessors were outstanding
	recorded bool // commit record written and the tx retired

	pending   atomic.Int32 // blocks that must persist before commit
	sealed    atomic.Bool  // no more pending blocks will be added
	committed atomic.Bool  // commit requested (record may trail behind deps)
	// waiting counts predecessors whose records are not yet written
	// (guarded by j.depMu).
	waiting int32

	waiters []*Tx // transactions chained behind this one (under j.depMu)
}

// New creates a journal over [base, base+size) of dev with DefaultLanes
// lanes. The caller must have zeroed the area on mkfs; use Recover on an
// existing image.
func New(dev *nvmm.Device, base, size int64) (*Journal, error) {
	return NewLanes(dev, base, size, 0)
}

// NewLanes is New with an explicit lane count (0 = DefaultLanes). The lane
// count is a DRAM-only concurrency knob: entries are self-describing
// (txid + global sequence), so an image written with one lane count
// recovers correctly under any other. Lanes are clamped so every lane half
// spans at least one block.
func NewLanes(dev *nvmm.Device, base, size int64, lanes int) (*Journal, error) {
	if size < 2*cacheline.BlockSize || size%(2*cacheline.BlockSize) != 0 {
		return nil, fmt.Errorf("journal: area size %d must be a positive multiple of two blocks", size)
	}
	if lanes <= 0 {
		lanes = DefaultLanes
	}
	halfBlocks := size / (2 * cacheline.BlockSize) // total blocks available per half-set
	if int64(lanes) > halfBlocks {
		lanes = int(halfBlocks)
	}
	j := &Journal{dev: dev, base: base, size: size}
	off := base
	for i := 0; i < lanes; i++ {
		hb := halfBlocks / int64(lanes)
		if int64(i) < halfBlocks%int64(lanes) {
			hb++
		}
		halfBytes := hb * cacheline.BlockSize
		ln := &lane{open: make(map[uint32]struct{})}
		ln.halves[0] = half{base: off, count: int(hb) * entriesPerBlock}
		ln.halves[1] = half{base: off + halfBytes, count: int(hb) * entriesPerBlock}
		off += 2 * halfBytes
		j.lanes = append(j.lanes, ln)
	}
	return j, nil
}

// Lanes returns the number of independent journal lanes.
func (j *Journal) Lanes() int { return len(j.lanes) }

// TxCapacity returns the number of entries one transaction may log without
// deadlocking on itself: the capacity of the smallest lane half, less the
// commit slot a transaction takes beside its entries when they spill into
// the other half. A transaction that fills the half it started in rotates
// into the other one, which it can always drain into (it waits only for
// other transactions); one that outgrows that half too would wait for the
// first to drain while itself live in it — forever. Callers with unbounded
// work (freeing a large file's tree) split it into transactions sized from
// this.
func (j *Journal) TxCapacity() int {
	c := j.lanes[0].halves[0].count
	for _, ln := range j.lanes[1:] {
		if n := ln.halves[0].count; n < c {
			c = n
		}
	}
	return c - 1
}

// SetPressure registers a callback invoked when the log is under space
// pressure, with a bound: a transaction holding the half its lane reuses
// next began before it (Tx.BegunBefore). An early nudge — a half passing
// 3/4 full — passes the first txid of that half, so only transactions that
// can hold the other half count; a writer stalled on a full lane passes one
// past every txid handed out so far. The callback must not call back into the journal's Begin or LogRange
// (committing via BlockPersisted is fine and is the point).
func (j *Journal) SetPressure(fn func(bound uint32)) {
	j.pressure.Store(fn)
}

// NudgeBound returns the bound the latest early nudge passed, recorded on
// the allocating goroutine when the half crossed its mark (Stats.Nudges
// counts the same event), so a caller that serves nudges itself can drain
// exactly what the nudge asked for.
func (j *Journal) NudgeBound() uint32 { return j.nudgeBound.Load() }

// ID returns t's transaction id, unique within a mount and increasing in
// Begin order (modulo 2^32, see BegunBefore).
func (t *Tx) ID() uint32 { return t.id }

// BegunBefore reports whether t's txid precedes bound. Txids wrap, so the
// order is the sign of the 32-bit difference: it holds while the
// transactions compared are fewer than 2^31 ids apart, which open
// transactions always are.
func (t *Tx) BegunBefore(bound uint32) bool { return int32(t.id-bound) < 0 }

// SetObs attaches a collector receiving lane-contention counters, or
// detaches with nil.
func (j *Journal) SetObs(c *obs.Collector) { j.col.Store(c) }

func (j *Journal) callPressure(bound uint32) {
	if fn, ok := j.pressure.Load().(func(uint32)); ok && fn != nil {
		j.pressureCalls.Add(1)
		fn(bound)
	}
}

// lock acquires ln's mutex, counting contended acquisitions and charging
// the contended wait to the attached op's lock stage. The uncontended
// fast path pays nothing beyond the TryLock.
func (j *Journal) lock(ln *lane) {
	if ln.mu.TryLock() {
		return
	}
	j.laneContended.Add(1)
	j.col.Load().Add(obs.CtrJournalLaneContended, 1)
	op := obs.CurrentOp()
	var start time.Time
	if op != nil {
		start = time.Now()
	}
	ln.mu.Lock()
	if op != nil {
		op.Charge(obs.StageLock, time.Since(start).Nanoseconds())
	}
}

// Begin opens a transaction on a round-robin-assigned lane and reserves its
// commit slot there.
func (j *Journal) Begin() *Tx {
	ln := j.lanes[j.nextLane.Add(1)%uint64(len(j.lanes))]
	t := &Tx{j: j, ln: ln, id: j.nextID.Add(1)}
	j.lock(ln)
	ln.open[t.id] = struct{}{}
	j.allocSlotLocked(ln, t, false) // sets t.commitSlot
	ln.mu.Unlock()
	return t
}

// allocSlotLocked reserves one slot for t in ln's current half, rotating
// halves when full: the commit slot at Begin (entry false), or an entry
// slot. An entry that lands in a half other than the one holding t's commit
// slot takes a fresh commit slot beside it, so t's record lives in the half
// of its last entry and never dies before them. Called with ln.mu held; may
// drop and reacquire it while waiting for the other half to drain.
func (j *Journal) allocSlotLocked(ln *lane, t *Tx, entry bool) int64 {
	for {
		h := &ln.halves[ln.cur]
		move := entry && int(t.commitHalf) != ln.cur
		need := 1
		if move {
			need = 2
		}
		if h.next+need <= h.count {
			if !t.touched[ln.cur] {
				t.touched[ln.cur] = true
				h.live++
			}
			first := h.next
			h.next += need
			if !entry || move {
				t.commitSlot, t.commitHalf = h.slot(first), uint8(ln.cur)
			}
			// Nudge the drainers early when a half passes 3/4 full, unless
			// a nudge is already running. Only transactions begun before
			// this half's first txid can hold the other half.
			if mark := h.count * 3 / 4; first < mark && h.next >= mark {
				j.nudges.Add(1)
				bound := h.first
				j.nudgeBound.Store(bound)
				if j.nudging.CompareAndSwap(false, true) {
					go func() {
						defer j.nudging.Store(false)
						j.callPressure(bound)
					}()
				}
			}
			return h.slot(h.next - 1)
		}
		// Current half is full: rotate once the other half has no live
		// transactions. Every entry in it belongs to a retired transaction;
		// stamping its headers makes them all stale at once.
		other := &ln.halves[1-ln.cur]
		if other.live == 0 {
			j.stamp(other)
			other.next = 0
			other.first = j.nextID.Load() + 1
			ln.cur = 1 - ln.cur
			j.checkpoints.Add(1)
			continue
		}
		j.stalls.Add(1)
		ln.mu.Unlock()
		j.callPressure(j.nextID.Load() + 1)
		time.Sleep(50 * time.Microsecond)
		j.lock(ln)
	}
}

// stamp opens a new generation in h: every block header takes the current
// sequence value, so every entry the half held reads as stale and every
// entry written from now on, whose sequence is drawn after this, reads as
// live. The headers are durable before any slot of h is handed out. A torn
// stamp (some headers new, some old) leaves stale entries of retired
// transactions live, each beside its commit record, which nothing has
// overwritten yet.
func (j *Journal) stamp(h *half) {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], j.seq.Load())
	for b := h.base; b < h.end(); b += cacheline.BlockSize {
		j.dev.Write(hdr[:], b+offGen)
		j.dev.Flush(b, EntrySize)
	}
	j.dev.Fence()
}

// zeroBlock is the all-zero source for Recover's reset of the log area; it
// is only ever read.
var zeroBlock [cacheline.BlockSize]byte

// writeEntry persists one entry, stamping its global sequence number. The
// entry is one cacheline and stores within a cacheline are never reordered
// by the caching hierarchy (§4.1), so writing the body first, the valid
// byte last, and issuing a single flush+fence guarantees a torn entry is
// never seen as valid.
func (j *Journal) writeEntry(addr int64, e [EntrySize]byte) {
	body := e
	binary.LittleEndian.PutUint64(body[offSeq:], j.seq.Add(1))
	body[offValid] = 0
	j.dev.Write(body[:], addr)
	j.dev.Write([]byte{1}, addr+offValid)
	j.dev.Flush(addr, EntrySize)
	j.dev.Fence()
	j.entriesLogged.Add(1)
}

// logEntry allocates a slot for t on its lane and writes e into it. The
// device write happens outside the lane lock: the slot is exclusively
// reserved, so only the slot cursor needs mutual exclusion.
func (t *Tx) logEntry(e [EntrySize]byte) {
	t.j.lock(t.ln)
	slot := t.j.allocSlotLocked(t.ln, t, true)
	t.ln.mu.Unlock()
	t.j.writeEntry(slot, e)
}

// LogRange records the current contents of [addr, addr+n) on the device as
// undo data. It must be called before the range is modified.
func (t *Tx) LogRange(addr int64, n int) {
	if t.committed.Load() {
		panic("journal: LogRange on committed transaction")
	}
	for n > 0 {
		chunk := n
		if chunk > MaxUndoBytes {
			chunk = MaxUndoBytes
		}
		var e [EntrySize]byte
		binary.LittleEndian.PutUint32(e[offTxid:], t.id)
		binary.LittleEndian.PutUint64(e[offAddr:], uint64(addr))
		e[offLen] = byte(chunk)
		e[offKind] = kindUndo
		t.j.dev.Read(e[offData:offData+chunk], addr)
		t.logEntry(e)
		addr += int64(chunk)
		n -= chunk
	}
}

// LogBitmap records a logical undo for one 8-byte allocation-bitmap word:
// mask is the XOR the transaction is about to apply to the word at addr.
// Rollback re-applies the XOR, which is its own inverse and commutes with
// other transactions' bitmap undos — so bitmap words, which many
// transactions legitimately share, unwind correctly regardless of commit
// interleaving. It must be called before the word is modified.
func (t *Tx) LogBitmap(addr int64, mask uint64) {
	if t.committed.Load() {
		panic("journal: LogBitmap on committed transaction")
	}
	var e [EntrySize]byte
	binary.LittleEndian.PutUint32(e[offTxid:], t.id)
	binary.LittleEndian.PutUint64(e[offAddr:], uint64(addr))
	e[offLen] = 8
	e[offKind] = kindBitmap
	binary.LittleEndian.PutUint64(e[offData:], mask)
	t.logEntry(e)
}

// After chains t's commit record behind prev's: even if t's commit is
// requested first, its record is not written until prev's record is
// durable. Transactions touching the same inode's metadata must be chained
// in begin order, or an out-of-order crash could roll an earlier
// uncommitted transaction's undo image over a later committed one's
// update. Chaining works across lanes (the dependency graph is global).
// Must be called before t's commit is requested; nil prev is a no-op.
func (t *Tx) After(prev *Tx) {
	if prev == nil || prev == t {
		return
	}
	j := t.j
	j.depMu.Lock()
	if !prev.recorded {
		prev.waiters = append(prev.waiters, t)
		t.waiting++
	}
	j.depMu.Unlock()
}

// Commit writes the commit record immediately. Use Seal/AddPending for
// ordered-mode deferred commits instead.
func (t *Tx) Commit() {
	t.finishCommit()
}

// AddPending registers n data blocks whose persistence must precede this
// transaction's commit record (HiNFS ordered mode, §4.1).
func (t *Tx) AddPending(n int) {
	t.pending.Add(int32(n))
}

// Seal declares that no further pending blocks will be added. If all
// pending blocks have already persisted, the commit record is written now;
// otherwise the final BlockPersisted call writes it.
func (t *Tx) Seal() {
	t.sealed.Store(true)
	if t.pending.Load() == 0 {
		t.finishCommit()
	}
}

// BlockPersisted tells the transaction one of its pending data blocks is
// now durable. When the last pending block of a sealed transaction
// persists, the commit record is written.
func (t *Tx) BlockPersisted() {
	if t.pending.Add(-1) == 0 && t.sealed.Load() {
		t.finishCommit()
	}
}

// Committed reports whether commit has been requested (the record itself
// may still be waiting on chained predecessors, see After).
func (t *Tx) Committed() bool { return t.committed.Load() }

// finishCommit requests the commit. If chained predecessors have not
// written their records yet the transaction is marked ready and the last
// predecessor's record-writer completes it; otherwise the record is
// written here.
func (t *Tx) finishCommit() {
	if t.committed.Swap(true) {
		return
	}
	j := t.j
	j.depMu.Lock()
	if t.waiting > 0 {
		t.ready = true
		j.depMu.Unlock()
		return
	}
	j.depMu.Unlock()
	j.writeRecordChain(t)
}

// writeRecordChain writes t's commit record and then the records of every
// chained transaction that became unblocked and was already
// commit-requested, in dependency order.
func (j *Journal) writeRecordChain(t *Tx) {
	queue := []*Tx{t}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		j.writeRecord(cur)
		j.depMu.Lock()
		cur.recorded = true
		for _, w := range cur.waiters {
			w.waiting--
			if w.waiting == 0 && w.ready {
				queue = append(queue, w)
			}
		}
		cur.waiters = nil
		j.depMu.Unlock()
	}
}

// writeRecord makes cur's commit durable — a crash after its fence never
// rolls cur back — and then retires it in DRAM: its lane halves stop
// counting it, so the half its entries and record sit in can be reused,
// which is what makes them stale (see stamp). Nothing is written to retire
// them.
func (j *Journal) writeRecord(cur *Tx) {
	var e [EntrySize]byte
	binary.LittleEndian.PutUint32(e[offTxid:], cur.id)
	e[offKind] = kindCommit
	j.writeEntry(cur.commitSlot, e)
	j.commits.Add(1)

	ln := cur.ln
	j.lock(ln)
	for i := range cur.touched {
		if cur.touched[i] {
			ln.halves[i].live--
		}
	}
	delete(ln.open, cur.id)
	ln.mu.Unlock()
}

// ResidueEntry describes a live undo or bitmap entry whose transaction is
// neither open nor committed: one that recovery would roll back although no
// transaction is in flight.
type ResidueEntry struct {
	// Slot is the line index within the journal area.
	Slot int
	// Lane is the lane whose region holds the slot.
	Lane int
	// TxID is the owning transaction.
	TxID uint32
	// Kind is the entry kind byte (1 undo, 3 bitmap).
	Kind byte
}

// laneOf returns the index of the lane whose region contains addr, or -1
// for addresses outside every lane.
func (j *Journal) laneOf(addr int64) int {
	for i, ln := range j.lanes {
		if addr >= ln.halves[0].base && addr < ln.halves[1].end() {
			return i
		}
	}
	return -1
}

// Residue scans the log area and returns each live undo or bitmap entry
// whose transaction is not open on any lane and has no live commit record.
// The caller must guarantee quiescence (no transactions begun or committed
// during the scan); pmfs.Check runs it after recovery or sync to verify that
// a committed transaction's record outlives its entries and that rotation
// fenced out every retired one.
func (j *Journal) Residue() []ResidueEntry {
	open := make(map[uint32]struct{})
	for _, ln := range j.lanes {
		ln.mu.Lock()
		for id := range ln.open {
			open[id] = struct{}{}
		}
		ln.mu.Unlock()
	}

	committed := make(map[uint32]bool)
	var cand []ResidueEntry
	scan(j.dev, j.base, j.size, true, func(line int, e *[EntrySize]byte, live bool) {
		if !live {
			return
		}
		txid := binary.LittleEndian.Uint32(e[offTxid:])
		switch e[offKind] {
		case kindCommit:
			committed[txid] = true
		case kindUndo, kindBitmap:
			if _, ok := open[txid]; !ok {
				cand = append(cand, ResidueEntry{Slot: line, Lane: j.laneOf(j.base + int64(line)*EntrySize), TxID: txid, Kind: e[offKind]})
			}
		}
	})
	var out []ResidueEntry
	for _, r := range cand {
		if !committed[r.TxID] {
			out = append(out, r)
		}
	}
	return out
}

// scan calls fn for every line of the area [base, base+size) whose valid
// byte is set, with whether the entry is live. With stamped, line 0 of each
// block is its header and an entry is live only when its sequence is above
// the header's stamp; without, the area is read as images formatted before
// block headers wrote it — every line an entry, live while valid.
func scan(dev *nvmm.Device, base, size int64, stamped bool, fn func(line int, e *[EntrySize]byte, live bool)) {
	var blk [cacheline.BlockSize]byte
	for off := int64(0); off < size; off += cacheline.BlockSize {
		dev.Read(blk[:], base+off)
		first, gen := 0, uint64(0)
		if stamped {
			first, gen = 1, binary.LittleEndian.Uint64(blk[offGen:])
		}
		for l := first; l < linesPerBlock; l++ {
			e := (*[EntrySize]byte)(blk[l*EntrySize:])
			if e[offValid] != 1 {
				continue
			}
			live := !stamped || binary.LittleEndian.Uint64(e[offSeq:]) > gen
			fn(int(off/EntrySize)+l, e, live)
		}
	}
}

// Stats reports journal activity counters.
type Stats struct {
	EntriesLogged int64
	Commits       int64
	// Checkpoints counts half rotations (log reuse), summed across lanes.
	Checkpoints int64
	// Stalls counts waits for a lane's opposite half to drain.
	Stalls int64
	// Nudges counts halves that passed 3/4 full, each asking for an early
	// drain; it is counted on the allocating goroutine, so it is a function
	// of the transaction stream even when the nudge itself is skipped
	// because one is still running.
	Nudges int64
	// Lanes is the number of independent journal lanes.
	Lanes int
	// LaneContended counts lane-lock acquisitions that found the lock held.
	LaneContended int64
	// PressureCalls counts invocations of the pressure callback: early
	// nudges (single-flight) plus one per stalled wait.
	PressureCalls int64
}

// Stats returns a snapshot of journal counters.
func (j *Journal) Stats() Stats {
	return Stats{
		EntriesLogged: j.entriesLogged.Load(),
		Commits:       j.commits.Load(),
		Checkpoints:   j.checkpoints.Load(),
		Stalls:        j.stalls.Load(),
		Nudges:        j.nudges.Load(),
		Lanes:         len(j.lanes),
		LaneContended: j.laneContended.Load(),
		PressureCalls: j.pressureCalls.Load(),
	}
}

// Recover scans the whole journal area, rolls back every transaction
// without a commit record, and resets the area. The scan is lane-agnostic
// by construction: halves are whole blocks, and every entry carries its
// txid and a globally unique sequence number, so entries from all lanes
// merge into one rollback stream. Only live entries (above their block's
// generation stamp) are rolled back; a commit record counts whether or not
// it is live — txids are unique within a mount and the area is zeroed at
// mount, so any commit record names a committed transaction, and a torn
// stamp cannot make a committed transaction's stale entries roll back.
// Physical undo entries are applied in reverse global-sequence order across
// all uncommitted transactions (not merely per transaction or per lane), so
// interleaved writers to overlapping ranges unwind to the oldest pre-image;
// bitmap entries apply their XOR mask, which commutes. It returns the number
// of transactions rolled back.
//
// An entry that would be rolled back but is malformed — a length over the
// undo capacity, a bitmap entry not 8 bytes long, a range outside the
// device or overlapping the log area — makes Recover return an error before
// it writes anything.
func Recover(dev *nvmm.Device, base, size int64) (rolledBack int, err error) {
	return recoverArea(dev, base, size, true)
}

// RecoverUnstamped is Recover for an area written before log blocks carried
// generation headers: every line is an entry, live while its valid byte is
// set (committed transactions cleared theirs when they retired). It leaves
// the area zeroed, which is a valid stamped log.
func RecoverUnstamped(dev *nvmm.Device, base, size int64) (rolledBack int, err error) {
	return recoverArea(dev, base, size, false)
}

func recoverArea(dev *nvmm.Device, base, size int64, stamped bool) (rolledBack int, err error) {
	if size < 2*cacheline.BlockSize || size%(2*cacheline.BlockSize) != 0 {
		return 0, fmt.Errorf("journal: bad area size %d", size)
	}
	var undos []undoEntry
	committed := make(map[uint32]bool)
	scan(dev, base, size, stamped, func(line int, e *[EntrySize]byte, live bool) {
		txid := binary.LittleEndian.Uint32(e[offTxid:])
		switch e[offKind] {
		case kindCommit:
			committed[txid] = true
		case kindUndo, kindBitmap:
			if live {
				u := undoEntry{
					line: line,
					seq:  binary.LittleEndian.Uint64(e[offSeq:]),
					txid: txid,
					kind: e[offKind],
					addr: binary.LittleEndian.Uint64(e[offAddr:]),
					n:    int(e[offLen]),
				}
				copy(u.data[:], e[offData:])
				undos = append(undos, u)
			}
		}
	})
	for i := range undos {
		if u := &undos[i]; !committed[u.txid] {
			if err := u.check(dev.Size(), base, size); err != nil {
				return 0, err
			}
		}
	}
	// Newest first: later modifications must be undone before earlier
	// ones so overlapping ranges land on the oldest pre-image.
	rolled := make(map[uint32]bool)
	sort.Slice(undos, func(a, b int) bool { return undos[a].seq > undos[b].seq })
	for _, u := range undos {
		if committed[u.txid] {
			continue
		}
		addr := int64(u.addr)
		if u.kind == kindBitmap {
			var w [8]byte
			dev.Read(w[:], addr)
			v := binary.LittleEndian.Uint64(w[:]) ^ binary.LittleEndian.Uint64(u.data[:8])
			binary.LittleEndian.PutUint64(w[:], v)
			dev.Write(w[:], addr)
			dev.Flush(addr, 8)
		} else {
			dev.Write(u.data[:u.n], addr)
			dev.Flush(addr, u.n)
		}
		rolled[u.txid] = true
	}
	if len(rolled) > 0 {
		dev.Fence()
	}
	rolledBack = len(rolled)
	// Reset the area.
	for off := int64(0); off < size; off += cacheline.BlockSize {
		dev.Write(zeroBlock[:], base+off)
	}
	dev.Flush(base, int(size))
	dev.Fence()
	return rolledBack, nil
}

// undoEntry is a live undo or bitmap entry as Recover read it.
type undoEntry struct {
	line int // line index within the area
	seq  uint64
	txid uint32
	kind byte
	addr uint64
	n    int
	data [MaxUndoBytes]byte
}

// check rejects an entry recovery must not apply: a length the entry kind
// cannot hold, or a range that leaves the device or overlaps the log area
// [base, base+size).
func (u *undoEntry) check(devSize, base, size int64) error {
	end := u.addr + uint64(u.n)
	switch {
	case u.n > MaxUndoBytes || (u.kind == kindBitmap && u.n != 8):
		return fmt.Errorf("journal: corrupt entry %d: kind %d length %d", u.line, u.kind, u.n)
	case u.addr > uint64(devSize) || end > uint64(devSize):
		return fmt.Errorf("journal: corrupt entry %d: range [%d, %d) outside the %d-byte device", u.line, u.addr, end, devSize)
	case u.addr < uint64(base+size) && end > uint64(base):
		return fmt.Errorf("journal: corrupt entry %d: range [%d, %d) overlaps the log area", u.line, u.addr, end)
	}
	return nil
}
