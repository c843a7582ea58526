// Package benefit implements HiNFS's Buffer Benefit Model (paper §3.3.2):
// the policy that classifies asynchronous writes as lazy-persistent
// (buffer in DRAM) or eager-persistent (write NVMM directly) before the
// write is issued.
//
// Each data block carries a state bit (Lazy-Persistent or
// Eager-Persistent). At every synchronization operation the model
// evaluates, per related block, Inequality (1):
//
//	N_cw·L_dram + N_cf·L_nvmm < N_cw·L_nvmm
//
// where N_cw is the number of cacheline writes to the block since its
// previous synchronization and N_cf is the number of cacheline flushes
// the synchronization itself would perform. A block satisfying the
// inequality benefits from buffering and is set Lazy-Persistent;
// otherwise it is set Eager-Persistent and subsequent asynchronous writes
// go directly to NVMM. A block decays back to Lazy-Persistent when its
// file has not seen a synchronization for 5 s (eagerDecay).
//
// N_cf is measured with a ghost buffer: a bounded index that pretends
// every write was buffered but stores only cacheline bitmaps, not data
// (<1 % of the real buffer's memory). The model also records prediction
// accuracy — whether a block's consecutive synchronizations agree — which
// regenerates the paper's Figure 6.
package benefit

import (
	"sync"
	"time"

	"hinfs/internal/cacheline"
	"hinfs/internal/clock"
	"hinfs/internal/obs"
)

const (
	// dramWriteLatency is L_dram per cacheline.
	dramWriteLatency = 25 * time.Nanosecond
	// eagerDecay switches a block back to Lazy-Persistent after this long
	// without a synchronization on its file.
	eagerDecay = 5 * time.Second
)

// Config parameterizes the model. Zero fields take paper defaults.
type Config struct {
	// NVMMWriteLatency is L_nvmm per cacheline (default 200 ns).
	NVMMWriteLatency time.Duration
	// GhostBlocks bounds the ghost buffer (default 4096 blocks). The
	// paper's ghost buffer "has the same number of entries as the write
	// buffer" (§3.3.2) while storing only bitmaps, so size it like the
	// real DRAM buffer.
	GhostBlocks int
	// Obs, when non-nil, counts each synchronization's per-block
	// verdicts (obs.CtrBenefitEager / CtrBenefitLazy), exposing the
	// ghost-buffer decision mix to the observability layer.
	Obs *obs.Collector
}

func (c *Config) fill() {
	if c.NVMMWriteLatency == 0 {
		c.NVMMWriteLatency = 200 * time.Nanosecond
	}
	if c.GhostBlocks == 0 {
		c.GhostBlocks = 4096
	}
}

// blockState is the per-block model state.
type blockState struct {
	idx   int64
	eager bool
	// ncw counts cacheline writes since the block's last synchronization.
	ncw int
	// decidedAt is when the current state was last decided by a sync.
	decidedAt time.Time
	// prevSatisfied/hasPrev drive the Figure-6 accuracy metric.
	prevSatisfied bool
	hasPrev       bool
}

// ghostEntry tracks the would-be dirty cachelines of one block.
type ghostEntry struct {
	ino   uint64
	idx   int64
	dirty cacheline.Bitmap
	prev  *ghostEntry
	next  *ghostEntry
}

type ghostKey struct {
	ino uint64
	idx int64
}

// fileState is everything the model holds about one file.
type fileState struct {
	blocks map[int64]*blockState
	// touched lists the blocks whose ncw went 0 → >0 since the file's last
	// OnSync, in first-write order — exactly the blocks Inequality (1) must
	// be evaluated for at the next synchronization (§3.3.2), so OnSync costs
	// O(written since last sync), not O(blocks ever seen).
	//
	// Invariant: a block of this file has ncw > 0, or a ghost entry with
	// dirty != 0, only if it is in touched. A ghost entry's dirty bits are
	// set only by RecordWrite, which raises ncw in the same critical
	// section, and both are cleared only by the OnSync that drains touched;
	// so the full walk's "ncw == 0 && ncf == 0 → skip" already meant "not
	// in touched". The backing array is reused across syncs.
	touched []*blockState
	// newBlockEager aggregates the file's recent synchronization behaviour
	// so that blocks with no history of their own (fresh appends) inherit
	// the file's tendency: a mail server's append-fsync pattern marks the
	// whole file's new blocks Eager-Persistent, matching the paper's Varmail
	// and Facebook observations (§5.2.1, §5.3).
	newBlockEager bool
}

// Model is the eager-persistent write checker's decision engine. It is
// safe for concurrent use.
type Model struct {
	cfg Config
	clk clock.Clock

	mu     sync.Mutex
	files  map[uint64]*fileState
	ghost  map[ghostKey]*ghostEntry
	gHead  *ghostEntry // MRU
	gTail  *ghostEntry // LRU
	gCount int

	accurate  int64
	decisions int64
}

// NewModel creates a model.
func NewModel(clk clock.Clock, cfg Config) *Model {
	cfg.fill()
	return &Model{
		cfg:   cfg,
		clk:   clk,
		files: make(map[uint64]*fileState),
		ghost: make(map[ghostKey]*ghostEntry),
	}
}

// Config returns the model configuration after defaulting.
func (m *Model) Config() Config { return m.cfg }

// state returns the file and block records for (ino, idx), creating them.
func (m *Model) state(ino uint64, idx int64) (*fileState, *blockState) {
	f := m.files[ino]
	if f == nil {
		f = &fileState{blocks: make(map[int64]*blockState)}
		m.files[ino] = f
	}
	s := f.blocks[idx]
	if s == nil {
		// New blocks start Lazy-Persistent (§3.3.2).
		s = &blockState{idx: idx}
		f.blocks[idx] = s
	}
	return f, s
}

// --- ghost buffer LRU ---

func (m *Model) ghostPushFront(e *ghostEntry) {
	e.prev = nil
	e.next = m.gHead
	if m.gHead != nil {
		m.gHead.prev = e
	}
	m.gHead = e
	if m.gTail == nil {
		m.gTail = e
	}
}

func (m *Model) ghostUnlink(e *ghostEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.gHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.gTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (m *Model) ghostTouch(ino uint64, idx int64, mask cacheline.Bitmap) {
	k := ghostKey{ino, idx}
	e := m.ghost[k]
	if e == nil {
		if m.gCount >= m.cfg.GhostBlocks && m.gTail != nil {
			// Evict the LRU ghost entry: in the real buffer its lines
			// would have been flushed in the background, which N_cf
			// excludes by definition.
			victim := m.gTail
			m.ghostUnlink(victim)
			delete(m.ghost, ghostKey{victim.ino, victim.idx})
			m.gCount--
		}
		e = &ghostEntry{ino: ino, idx: idx}
		m.ghost[k] = e
		m.gCount++
	} else {
		m.ghostUnlink(e)
	}
	e.dirty |= mask
	m.ghostPushFront(e)
}

// RecordWrite tells the model a write covered the cachelines of mask in
// block idx of file ino. Call it for every asynchronous write, buffered
// or direct, before or after issuing it.
func (m *Model) RecordWrite(ino uint64, idx int64, mask cacheline.Bitmap) {
	m.mu.Lock()
	f, s := m.state(ino, idx)
	if n := mask.Count(); n > 0 {
		if s.ncw == 0 {
			f.touched = append(f.touched, s)
		}
		s.ncw += n
	}
	m.ghostTouch(ino, idx, mask)
	m.mu.Unlock()
}

// IsEager reports whether an asynchronous write to block idx must bypass
// the DRAM buffer. lastSync is the file's last synchronization time: a
// block whose file has not synced within eagerDecay decays to
// Lazy-Persistent (the paper's 5 s rule, applied at write time using the
// file's recorded sync time rather than by scanning).
func (m *Model) IsEager(ino uint64, idx int64, lastSync time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[ino]
	var s *blockState
	if f != nil {
		s = f.blocks[idx]
	}
	if m.clk.Now().Sub(lastSync) > eagerDecay {
		// The file has been quiet: everything decays to Lazy-Persistent.
		if s != nil {
			s.eager = false
		}
		return false
	}
	if s == nil || !s.hasPrev {
		// No per-block history: inherit the file's recent tendency.
		return f != nil && f.newBlockEager
	}
	return s.eager
}

// OnSync re-evaluates Inequality (1) for every block of ino written since
// its previous synchronization and returns the number of blocks set
// Eager-Persistent. The ghost buffer supplies N_cf. It visits only the
// file's touched list (see fileState), so a sync of a file with nothing
// written since the last one costs one map lookup under the model lock.
func (m *Model) OnSync(ino uint64) (eager, lazy int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[ino]
	if f == nil || len(f.touched) == 0 {
		return 0, 0
	}
	now := m.clk.Now()
	ld := int64(dramWriteLatency)
	ln := int64(m.cfg.NVMMWriteLatency)
	for _, s := range f.touched {
		var ncf int
		if e := m.ghost[ghostKey{ino, s.idx}]; e != nil {
			ncf = e.dirty.Count()
			e.dirty = 0 // the sync flushes them
		}
		satisfied := int64(s.ncw)*ld+int64(ncf)*ln < int64(s.ncw)*ln
		if s.hasPrev {
			m.decisions++
			if s.prevSatisfied == satisfied {
				m.accurate++
			}
		}
		s.prevSatisfied = satisfied
		s.hasPrev = true
		s.eager = !satisfied
		s.decidedAt = now
		s.ncw = 0
		if s.eager {
			eager++
		} else {
			lazy++
		}
	}
	f.touched = f.touched[:0]
	f.newBlockEager = eager > lazy
	m.cfg.Obs.Add(obs.CtrBenefitEager, int64(eager))
	m.cfg.Obs.Add(obs.CtrBenefitLazy, int64(lazy))
	return eager, lazy
}

// MarkEager forces every tracked block of ino into the Eager-Persistent
// state (used by mmap: §4.2 sets all mapped blocks eager until munmap).
func (m *Model) MarkEager(ino uint64, indices []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, idx := range indices {
		_, s := m.state(ino, idx)
		s.eager = true
		s.hasPrev = true // authoritative: not a prediction
		s.decidedAt = m.clk.Now()
	}
}

// DropFile forgets all state for ino (unlink).
func (m *Model) DropFile(ino uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[ino]
	if f == nil {
		return
	}
	for idx := range f.blocks {
		k := ghostKey{ino, idx}
		if e := m.ghost[k]; e != nil {
			m.ghostUnlink(e)
			delete(m.ghost, k)
			m.gCount--
		}
	}
	delete(m.files, ino)
}

// Accuracy returns the Figure-6 metric: of all per-block synchronization
// pairs, how many made the same satisfy/violate decision as the previous
// one.
func (m *Model) Accuracy() (accurate, total int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.accurate, m.decisions
}

// GhostLen returns the current ghost buffer occupancy (tests).
func (m *Model) GhostLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gCount
}
