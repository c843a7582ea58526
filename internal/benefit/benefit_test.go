package benefit

import (
	"math/rand"
	"testing"
	"time"

	"hinfs/internal/cacheline"
	"hinfs/internal/clock"
)

func model(t *testing.T) (*Model, *clock.Fake) {
	t.Helper()
	fk := clock.NewFake(time.Unix(100, 0))
	return NewModel(fk, Config{GhostBlocks: 8}), fk
}

func TestNewBlocksStartLazy(t *testing.T) {
	m, fk := model(t)
	if m.IsEager(1, 0, fk.Now()) {
		t.Fatal("untracked block eager")
	}
	m.RecordWrite(1, 0, cacheline.Full)
	if m.IsEager(1, 0, fk.Now()) {
		t.Fatal("freshly written block eager before any sync")
	}
}

func TestSyncEveryWriteTurnsEager(t *testing.T) {
	m, fk := model(t)
	// N_cw == N_cf: 64 writes, all 64 flushed at sync → inequality fails.
	m.RecordWrite(1, 0, cacheline.Full)
	m.OnSync(1)
	if !m.IsEager(1, 0, fk.Now()) {
		t.Fatal("sync-every-write block not eager")
	}
}

func TestCoalescedWritesStayLazy(t *testing.T) {
	m, fk := model(t)
	// Many overwrites of the same line between syncs: N_cw = 100, N_cf = 1.
	for i := 0; i < 100; i++ {
		m.RecordWrite(1, 0, cacheline.RangeMask(0, 64))
	}
	m.OnSync(1)
	if m.IsEager(1, 0, fk.Now()) {
		t.Fatal("highly coalesced block marked eager")
	}
}

func TestInequalityBoundary(t *testing.T) {
	// With L_dram=25, L_nvmm=200: buffering wins iff 25·Ncw + 200·Ncf <
	// 200·Ncw, i.e. Ncf < 0.875·Ncw.
	// Each case writes the same ncf-line mask `writes` times, so
	// N_cw = writes·ncf and N_cf = ncf at sync.
	cases := []struct {
		ncf, writes int
		eager       bool
	}{
		{64, 1, true},   // 64·25+64·200 !< 64·200
		{1, 1, true},    // 25+200 !< 200
		{1, 100, false}, // 2500+200 < 20000
		{4, 2, false},   // 200+800 < 1600
		{8, 1, true},    // one-shot full-flush block
	}
	for _, c := range cases {
		fk := clock.NewFake(time.Unix(0, 0))
		m := NewModel(fk, Config{GhostBlocks: 8})
		mask := cacheline.RangeMask(0, c.ncf*cacheline.Size)
		for i := 0; i < c.writes; i++ {
			m.RecordWrite(1, 0, mask)
		}
		m.OnSync(1)
		if got := m.IsEager(1, 0, fk.Now()); got != c.eager {
			t.Errorf("ncf=%d writes=%d: eager=%v, want %v", c.ncf, c.writes, got, c.eager)
		}
	}
}

func TestEagerDecay(t *testing.T) {
	m, fk := model(t)
	m.RecordWrite(1, 0, cacheline.Full)
	m.OnSync(1)
	lastSync := fk.Now()
	if !m.IsEager(1, 0, lastSync) {
		t.Fatal("precondition")
	}
	fk.Advance(6 * time.Second)
	if m.IsEager(1, 0, lastSync) {
		t.Fatal("no decay after 6 s quiet period")
	}
}

func TestAccuracyMetric(t *testing.T) {
	m, _ := model(t)
	// Three identical sync rounds → after the first, each subsequent one
	// is an accurate prediction.
	for i := 0; i < 3; i++ {
		m.RecordWrite(1, 0, cacheline.Full)
		m.OnSync(1)
	}
	acc, total := m.Accuracy()
	if total != 2 || acc != 2 {
		t.Fatalf("accuracy %d/%d, want 2/2", acc, total)
	}
	// Now flip behaviour: heavy coalescing → decision changes → inaccurate.
	for i := 0; i < 64*8; i++ {
		m.RecordWrite(1, 0, cacheline.RangeMask(0, 64))
	}
	m.OnSync(1)
	acc, total = m.Accuracy()
	if total != 3 || acc != 2 {
		t.Fatalf("accuracy %d/%d, want 2/3", acc, total)
	}
}

func TestGhostBufferBounded(t *testing.T) {
	m, _ := model(t)
	for i := int64(0); i < 100; i++ {
		m.RecordWrite(1, i, cacheline.Full)
	}
	if got := m.GhostLen(); got > 8 {
		t.Fatalf("ghost holds %d entries, cap 8", got)
	}
}

func TestGhostEvictionExcludesFromNcf(t *testing.T) {
	m, fk := model(t)
	// Write block 0, then 8 more blocks to evict it from the ghost.
	m.RecordWrite(1, 0, cacheline.Full)
	for i := int64(1); i <= 8; i++ {
		m.RecordWrite(1, i, cacheline.RangeMask(0, 64))
	}
	// At sync, block 0's ghost entry is gone → N_cf = 0 → buffering wins
	// despite N_cw == flush-everything behaviour.
	m.OnSync(1)
	if m.IsEager(1, 0, fk.Now()) {
		t.Fatal("ghost-evicted block counted background flushes as N_cf")
	}
}

func TestMarkEagerAndDropFile(t *testing.T) {
	m, fk := model(t)
	m.MarkEager(7, []int64{0, 1, 2})
	for i := int64(0); i < 3; i++ {
		if !m.IsEager(7, i, fk.Now()) {
			t.Fatalf("block %d not eager after MarkEager", i)
		}
	}
	m.DropFile(7)
	if m.IsEager(7, 0, fk.Now()) {
		t.Fatal("state survives DropFile")
	}
	if m.GhostLen() != 0 {
		t.Fatal("ghost entries survive DropFile")
	}
}

func TestPerBlockIndependence(t *testing.T) {
	m, fk := model(t)
	m.RecordWrite(1, 0, cacheline.Full) // sync-heavy block
	for i := 0; i < 100; i++ {
		m.RecordWrite(1, 1, cacheline.RangeMask(0, 64)) // coalesced block
	}
	m.OnSync(1)
	if !m.IsEager(1, 0, fk.Now()) {
		t.Fatal("block 0 should be eager")
	}
	if m.IsEager(1, 1, fk.Now()) {
		t.Fatal("block 1 should stay lazy")
	}
}

func TestDefaults(t *testing.T) {
	m := NewModel(clock.Real{}, Config{})
	c := m.Config()
	if dramWriteLatency != 25*time.Nanosecond || c.NVMMWriteLatency != 200*time.Nanosecond {
		t.Fatalf("latency defaults: L_dram %v, %+v", dramWriteLatency, c)
	}
	if eagerDecay != 5*time.Second || c.GhostBlocks != 4096 {
		t.Fatalf("policy defaults: decay %v, %+v", eagerDecay, c)
	}
}

// refModel is the model as it was before OnSync learned which blocks were
// written: separate block and file maps, and an OnSync that walks every
// block the file has ever had, asking the ghost buffer about each. It is
// the reference the touched-list model must be indistinguishable from.
type refModel struct {
	cfg       Config
	clk       clock.Clock
	files     map[uint64]map[int64]*blockState
	fileStats map[uint64]bool // newBlockEager
	ghost     []*ghostEntry   // MRU first

	accurate, decisions int64
}

func newRefModel(clk clock.Clock, cfg Config) *refModel {
	cfg.fill()
	return &refModel{cfg: cfg, clk: clk,
		files: make(map[uint64]map[int64]*blockState), fileStats: make(map[uint64]bool)}
}

func (m *refModel) state(ino uint64, idx int64) *blockState {
	if m.files[ino] == nil {
		m.files[ino] = make(map[int64]*blockState)
	}
	if m.files[ino][idx] == nil {
		m.files[ino][idx] = &blockState{}
	}
	return m.files[ino][idx]
}

func (m *refModel) ghostFind(ino uint64, idx int64) int {
	for i, e := range m.ghost {
		if e.ino == ino && e.idx == idx {
			return i
		}
	}
	return -1
}

func (m *refModel) RecordWrite(ino uint64, idx int64, mask cacheline.Bitmap) {
	m.state(ino, idx).ncw += mask.Count()
	var e *ghostEntry
	if i := m.ghostFind(ino, idx); i >= 0 {
		e = m.ghost[i]
		m.ghost = append(m.ghost[:i], m.ghost[i+1:]...)
	} else {
		if len(m.ghost) >= m.cfg.GhostBlocks {
			m.ghost = m.ghost[:len(m.ghost)-1]
		}
		e = &ghostEntry{ino: ino, idx: idx}
	}
	e.dirty |= mask
	m.ghost = append([]*ghostEntry{e}, m.ghost...)
}

func (m *refModel) IsEager(ino uint64, idx int64, lastSync time.Time) bool {
	s := m.files[ino][idx]
	if m.clk.Now().Sub(lastSync) > eagerDecay {
		if s != nil {
			s.eager = false
		}
		return false
	}
	if s == nil || !s.hasPrev {
		return m.fileStats[ino]
	}
	return s.eager
}

func (m *refModel) OnSync(ino uint64) (eager, lazy int) {
	for idx, s := range m.files[ino] {
		ncf := 0
		if i := m.ghostFind(ino, idx); i >= 0 {
			ncf = m.ghost[i].dirty.Count()
			m.ghost[i].dirty = 0
		}
		if s.ncw == 0 && ncf == 0 {
			continue
		}
		ld, ln := int64(dramWriteLatency), int64(m.cfg.NVMMWriteLatency)
		satisfied := int64(s.ncw)*ld+int64(ncf)*ln < int64(s.ncw)*ln
		if s.hasPrev {
			m.decisions++
			if s.prevSatisfied == satisfied {
				m.accurate++
			}
		}
		s.prevSatisfied, s.hasPrev, s.eager, s.ncw = satisfied, true, !satisfied, 0
		if s.eager {
			eager++
		} else {
			lazy++
		}
	}
	if eager+lazy > 0 {
		m.fileStats[ino] = eager > lazy
	}
	return eager, lazy
}

func (m *refModel) MarkEager(ino uint64, indices []int64) {
	for _, idx := range indices {
		s := m.state(ino, idx)
		s.eager, s.hasPrev = true, true
	}
}

func (m *refModel) DropFile(ino uint64) {
	for idx := range m.files[ino] {
		if i := m.ghostFind(ino, idx); i >= 0 {
			m.ghost = append(m.ghost[:i], m.ghost[i+1:]...)
		}
	}
	delete(m.files, ino)
	delete(m.fileStats, ino)
}

// TestOnSyncMatchesFullWalk is the equivalence proof by differential
// testing: random RecordWrite / IsEager / OnSync / MarkEager / DropFile
// sequences, with clock advances past eagerDecay and a ghost buffer small
// enough to evict, against the full-walk reference. Every return value,
// the accuracy counters, the ghost occupancy and the eager state of every
// block must agree after every step.
func TestOnSyncMatchesFullWalk(t *testing.T) {
	const nFiles, nBlocks = 4, 24
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fk := clock.NewFake(time.Unix(100, 0))
		cfg := Config{GhostBlocks: 6 + int(seed)%20}
		m, ref := NewModel(fk, cfg), newRefModel(fk, cfg)
		lastSync := make([]time.Time, nFiles)
		for step := 0; step < 3000; step++ {
			ino := uint64(rng.Intn(nFiles))
			idx := int64(rng.Intn(nBlocks))
			switch r := rng.Intn(100); {
			case r < 55:
				var mask cacheline.Bitmap
				if rng.Intn(20) > 0 { // an empty mask now and then
					off := rng.Intn(cacheline.BlockSize)
					mask = cacheline.RangeMask(off, 1+rng.Intn(cacheline.BlockSize-off))
				}
				m.RecordWrite(ino, idx, mask)
				ref.RecordWrite(ino, idx, mask)
			case r < 70:
				if got, want := m.IsEager(ino, idx, lastSync[ino]), ref.IsEager(ino, idx, lastSync[ino]); got != want {
					t.Fatalf("seed %d step %d: IsEager(%d,%d) = %v, reference %v", seed, step, ino, idx, got, want)
				}
			case r < 88:
				e, l := m.OnSync(ino)
				re, rl := ref.OnSync(ino)
				if e != re || l != rl {
					t.Fatalf("seed %d step %d: OnSync(%d) = %d eager %d lazy, reference %d / %d", seed, step, ino, e, l, re, rl)
				}
				lastSync[ino] = fk.Now()
			case r < 92:
				ids := []int64{idx, int64(rng.Intn(nBlocks))}
				m.MarkEager(ino, ids)
				ref.MarkEager(ino, ids)
			case r < 96:
				m.DropFile(ino)
				ref.DropFile(ino)
				lastSync[ino] = time.Time{}
			default:
				fk.Advance(time.Duration(rng.Intn(4)) * 2 * time.Second) // 0–6 s; decay is 5 s
			}
			if a, d := m.Accuracy(); a != ref.accurate || d != ref.decisions {
				t.Fatalf("seed %d step %d: accuracy %d/%d, reference %d/%d", seed, step, a, d, ref.accurate, ref.decisions)
			}
			if m.GhostLen() != len(ref.ghost) {
				t.Fatalf("seed %d step %d: ghost holds %d, reference %d", seed, step, m.GhostLen(), len(ref.ghost))
			}
			// IsEager has a side effect (decay clears the bit), so probing
			// every block on both sides keeps them in step.
			for f := uint64(0); f < nFiles; f++ {
				for b := int64(0); b < nBlocks; b++ {
					if got, want := m.IsEager(f, b, lastSync[f]), ref.IsEager(f, b, lastSync[f]); got != want {
						t.Fatalf("seed %d step %d: block (%d,%d) eager = %v, reference %v", seed, step, f, b, got, want)
					}
				}
			}
		}
	}
}

// TestRecordWriteOnSyncSteadyStateAllocatesNothing: once a file's blocks
// are known to the model, a write + sync cycle reuses the touched list's
// backing array and the blocks' ghost entries.
func TestRecordWriteOnSyncSteadyStateAllocatesNothing(t *testing.T) {
	m, _ := model(t)
	cycle := func() {
		for idx := int64(0); idx < 4; idx++ {
			m.RecordWrite(1, idx, cacheline.RangeMask(0, 512))
		}
		if e, l := m.OnSync(1); e+l != 4 {
			t.Fatalf("OnSync decided %d blocks, want 4", e+l)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("RecordWrite + OnSync allocates %v times in steady state", n)
	}
}
