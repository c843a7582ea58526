package crashtest

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"hinfs/internal/buffer"
	"hinfs/internal/clock"
	"hinfs/internal/core"
	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
	"hinfs/internal/workload"
)

// Config parameterizes one exploration.
type Config struct {
	// Workload names the personality: "varmail" (default — the paper's
	// fsync- and namespace-heavy mail server), "append" (append-heavy
	// logs with sparse fsyncs, the widest lazy-write windows),
	// "batchfence" (grouped ops under fence scopes — the coalesced
	// persist schedule of the pipelined server's grouped dispatches),
	// "reuse" (writes into blocks freed by poison-filled files; adds the
	// stale-bytes invariant over every recovered file) or "overwrite"
	// (journal-free overwrites inside the size, lazy and O_SYNC, beside an
	// appender on the same inode; adds the overwrite-size and
	// overwrite-bytes invariants).
	Workload string
	// Ops is the per-run operation count (default 120).
	Ops int
	// Points is the number of crash points to explore (default 48).
	// Points are drawn from the workload phase's persist-event window:
	// half on a systematic stride, half seeded-random, deduplicated.
	Points int
	// Perms is the number of torn-cacheline permutations per point
	// (default 3). The first is always seed 0 — the classic crash that
	// drops every pending line; the rest keep pseudo-random subsets.
	Perms int
	// Seed drives every random choice (default 1). Same seed, same
	// exploration, same report.
	Seed uint64
	// FirstEvent/LastEvent optionally clamp the crash window to a
	// sub-range of persist events (0 = unbounded), for replaying one
	// region of the schedule.
	FirstEvent, LastEvent int64
	// DeviceSize is the emulated NVMM capacity (default 24 MB).
	DeviceSize int64
	// BufferBlocks is the DRAM write-buffer size (default 512).
	BufferBlocks int
	// JournalBlocks is the journal area size (default 512 blocks: eight
	// lanes of two 32-block halves, which a run of a few hundred ops never
	// fills). A small area makes the lanes rotate, so crash points fall
	// inside and across generation stamps.
	JournalBlocks int64
	// UnsafeSkipOrderedCommit mounts with the deliberately seeded §4.1
	// ordering bug; the self-test uses it to prove the explorer detects
	// real ordering violations.
	UnsafeSkipOrderedCommit bool
	// Flight formats a flight-recorder region into the image, appends one
	// record per mutating op during the runs, and verifies the recovered
	// record suffix against the recorded op schedule at every crash case
	// (the "flight-*" invariant class): a surviving record must name an
	// op that completed before the crash, every record written strictly
	// before the crash must survive, and an fsynced size a surviving
	// fsync record claims must be met by the recovered file.
	Flight bool
	// Log, when non-nil, receives a line per verified crash case and
	// per violation.
	Log io.Writer
}

func (cfg *Config) fill() {
	if cfg.Workload == "" {
		cfg.Workload = "varmail"
	}
	if cfg.Ops == 0 {
		cfg.Ops = 120
	}
	if cfg.Points == 0 {
		cfg.Points = 48
	}
	if cfg.Perms == 0 {
		cfg.Perms = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DeviceSize == 0 {
		cfg.DeviceSize = 24 << 20
	}
	if cfg.BufferBlocks == 0 {
		cfg.BufferBlocks = 512
	}
	if cfg.JournalBlocks == 0 {
		cfg.JournalBlocks = 512
	}
}

// fsOpts builds the deterministic mount used for every run: one shard,
// inline-only writeback, a fake clock that never advances — the whole
// persist-event schedule is a pure function of the op stream, so a
// printed "event N seed S" repro names the same crash image when
// Forensics re-runs it.
func (cfg *Config) fsOpts() core.Options {
	var flightBlocks int64
	if cfg.Flight {
		flightBlocks = flightRegionBlocks
	}
	return core.Options{
		BufferBlocks:            cfg.BufferBlocks,
		Clock:                   clock.NewFake(time.Unix(0, 0)),
		Buffer:                  buffer.Config{Shards: 1, WritebackThreads: -1},
		PMFS:                    pmfs.Options{JournalBlocks: cfg.JournalBlocks, MaxInodes: 2048, FlightBlocks: flightBlocks},
		UnsafeSkipOrderedCommit: cfg.UnsafeSkipOrderedCommit,
	}
}

// flightRegionBlocks sizes the explorer's flight ring: 32 blocks = 128 KB
// ≈ 1023 slots, comfortably more records than any explorer run appends,
// so the lost-record invariant never has to reason about lapping.
const flightRegionBlocks = 32

func (cfg *Config) newWorkload() (workload.Workload, error) {
	switch cfg.Workload {
	case "varmail":
		// Scaled-down Varmail: same op mix (delete / create-append-fsync
		// / read-append-fsync / read), sized so a few hundred ops give a
		// few thousand crashable events.
		return &workload.Varmail{Files: 64, FileSize: 4 << 10, AppendSize: 4 << 10}, nil
	case "append":
		return &AppendSync{}, nil
	case "batchfence":
		return &BatchFence{}, nil
	case "reuse":
		return &Reuse{}, nil
	case "overwrite":
		return &Overwrite{}, nil
	}
	return nil, fmt.Errorf("crashtest: unknown workload %q (have varmail, append, batchfence, reuse, overwrite)", cfg.Workload)
}

// Violation is one detected crash-consistency failure, with everything
// needed to reproduce it: the crash event, the torn-subset seed and the
// failing invariant.
type Violation struct {
	// Event is the persist-event ordinal the crash was injected at.
	Event int64
	// Seed selected the kept subset of pending cachelines (0 = none).
	Seed uint64
	// Invariant names the failed check: "recovery" (remount failed),
	// "fsck" (metadata checker), an oracle invariant such as
	// "content", "torn-size", "synced-data-lost", "missing",
	// "resurrected", "dir-missing", the reuse workload's "stale-bytes",
	// or the overwrite workload's "overwrite-size" and "overwrite-bytes".
	Invariant string
	// Path is the affected file (oracle violations only).
	Path string
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the minimal repro line.
func (v Violation) String() string {
	s := fmt.Sprintf("event %d seed %#016x: %s", v.Event, v.Seed, v.Invariant)
	if v.Path != "" {
		s += " " + v.Path
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// tally is what every exploration counts, case by case.
type tally struct {
	Points     int // crash points explored
	Cases      int // points × permutations
	Recovered  int // cases that remounted successfully
	RolledBack int // journal transactions rolled back across all cases
	FsckErrors int // metadata-checker failures
	Violations []Violation
	// Suppressed counts violations beyond the reporting cap (a seeded
	// bug can fail thousands of cases; the first maxViolations carry
	// all the signal).
	Suppressed int
}

const maxViolations = 512

func (t *tally) add(v Violation, log io.Writer) {
	if len(t.Violations) >= maxViolations {
		t.Suppressed++
		return
	}
	t.Violations = append(t.Violations, v)
	if log != nil {
		fmt.Fprintf(log, "VIOLATION %s\n", v)
	}
}

// verdict renders the summary's closing clause.
func (t *tally) verdict() string {
	if n := len(t.Violations) + t.Suppressed; n > 0 {
		return fmt.Sprintf(", %d VIOLATIONS", n)
	}
	return ", no violations"
}

// remount materializes the crash image seed selects, remounts it through
// journal recovery and runs the metadata checker. fs is nil when the
// image did not remount; otherwise the caller abandons it.
func (t *tally) remount(state *nvmm.CrashState, seed uint64, opts core.Options, log io.Writer) (fs *core.FS, dev *nvmm.Device, rolled int) {
	pt := state.Event()
	dev, err := state.Materialize(seed)
	if err != nil {
		t.add(Violation{Event: pt, Seed: seed, Invariant: "materialize", Detail: err.Error()}, log)
		return nil, nil, 0
	}
	if fs, rolled, err = core.MountRecover(dev, opts); err != nil {
		t.add(Violation{Event: pt, Seed: seed, Invariant: "recovery", Detail: "remount failed: " + err.Error()}, log)
		return nil, nil, 0
	}
	t.Recovered++
	t.RolledBack += rolled
	for _, cerr := range fs.Fsck() {
		t.FsckErrors++
		t.add(Violation{Event: pt, Seed: seed, Invariant: "fsck", Detail: cerr.Error()}, log)
	}
	return fs, dev, rolled
}

// Report aggregates one exploration.
type Report struct {
	Workload    string
	Ops         int
	SetupEvents int64 // persist events consumed by Setup (not crashed into)
	TotalEvents int64 // schedule length of the full run
	Lanes       int   // journal lanes
	Rotations   int64 // journal half rotations in the workload phase
	tally
}

// Summary renders a one-paragraph result.
func (r *Report) Summary() string {
	return fmt.Sprintf("workload %s: %d events (%d setup), %d journal rotations over %d lanes, %d crash points × %d perms = %d cases, %d recovered, %d txs rolled back",
		r.Workload, r.TotalEvents, r.SetupEvents, r.Rotations, r.Lanes, r.Points, r.Cases/max(r.Points, 1), r.Cases, r.Recovered, r.RolledBack) + r.verdict()
}

// runResult is one full workload execution.
type runResult struct {
	recs      []opRecord
	setupEv   int64
	totalEv   int64
	history   *nvmm.Recording // the persist history after Setup
	lanes     int
	rotations int64 // journal half rotations after Setup
}

// runOnce executes the workload start to finish on a fresh device,
// recording the persist history from the end of Setup. The pool is
// abandoned rather than flushed, like a machine losing power.
func (cfg *Config) runOnce() (*runResult, error) {
	dev, err := nvmm.New(nvmm.Config{Size: cfg.DeviceSize, TrackPersistence: true})
	if err != nil {
		return nil, err
	}
	fs, err := core.Mkfs(dev, cfg.fsOpts())
	if err != nil {
		return nil, err
	}
	defer fs.Abandon()
	p := &pressure{fs: fs}
	fs.Journal().SetPressure(p.stalled)
	rec := &recorder{fs: fs, dev: dev, flt: fs.Flight(), between: p.between}
	w, err := cfg.newWorkload()
	if err != nil {
		return nil, err
	}
	if bf, ok := w.(*BatchFence); ok {
		bf.Dev = dev // the fence-scope API lives on the device, below the VFS
	}
	if err := w.Setup(rec); err != nil {
		return nil, fmt.Errorf("crashtest: %s setup: %w", w.Name(), err)
	}
	setupEv := dev.PersistEvents()
	rot := fs.Journal().Stats().Checkpoints
	history := dev.Record()
	if _, err := w.Run(rec, 1, cfg.Ops); err != nil {
		return nil, fmt.Errorf("crashtest: %s run: %w", w.Name(), err)
	}
	st := fs.Journal().Stats()
	return &runResult{
		recs:      rec.recs,
		setupEv:   setupEv,
		totalEv:   dev.PersistEvents(),
		history:   history,
		lanes:     st.Lanes,
		rotations: st.Checkpoints - rot,
	}, nil
}

// pressure drains journal pressure on the workload goroutine, so the
// persist schedule stays a function of the op stream once a small journal
// makes the lanes rotate. The journal's early nudge runs its callback on a
// goroutine of its own, whose buffer flush would interleave with the
// workload; here that callback acts only for an op stalled on a full lane
// (which calls it itself), and each nudge is served between ops instead,
// with the bound the nudge recorded — the same bounded drain core runs. A
// drain there is a partial unrecorded Sync, which the oracle already admits.
type pressure struct {
	fs     *core.FS
	nudges int64        // nudges served (workload goroutine only)
	stalls atomic.Int64 // stalls served
}

func (p *pressure) stalled(bound uint32) {
	if s := p.fs.Journal().Stats().Stalls; p.stalls.Swap(s) != s {
		p.fs.Pool().DrainBefore(bound)
	}
}

func (p *pressure) between() {
	if n := p.fs.Journal().Stats().Nudges; n != p.nudges {
		p.nudges = n
		p.fs.Pool().DrainBefore(p.fs.Journal().NudgeBound())
	}
}

// pickPoints chooses n distinct crash events in (lo, hi]: half on a
// systematic stride (coverage), half seeded-random (surprise), sorted.
func pickPoints(lo, hi int64, n int, seed uint64) []int64 {
	span := hi - lo
	if span <= 0 || n <= 0 {
		return nil
	}
	if int64(n) >= span {
		all := make([]int64, span)
		for i := range all {
			all[i] = lo + 1 + int64(i)
		}
		return all
	}
	set := make(map[int64]bool, n)
	pts := make([]int64, 0, n)
	take := func(p int64) {
		if p > lo && p <= hi && !set[p] {
			set[p] = true
			pts = append(pts, p)
		}
	}
	stride := n / 2
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < stride; i++ {
		take(lo + 1 + int64(i)*span/int64(stride))
	}
	rng := workload.NewRand(seed*0x9E3779B97F4A7C15 + 1)
	for len(pts) < n {
		take(lo + 1 + rng.Int63n(span))
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// permSeeds builds the torn-subset seed list: always seed 0 (drop every
// pending line) first, then perms-1 pseudo-random keeps.
func permSeeds(seed uint64, perms int) []uint64 {
	out := []uint64{0}
	rng := workload.NewRand(seed*0xD6E8FEB86659FD93 + 2)
	for len(out) < perms {
		if s := rng.Uint64(); s != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Explore runs the full record / walk / verify loop and returns the
// aggregated report. A non-nil error means the exploration itself broke
// (workload failure, empty crash window); consistency failures are
// returned inside the report, not as errors.
func Explore(cfg Config) (*Report, error) {
	cfg.fill()
	base, err := cfg.runOnce()
	if err != nil {
		return nil, err
	}
	lo, hi := base.setupEv, base.totalEv
	if cfg.FirstEvent > lo+1 {
		lo = cfg.FirstEvent - 1
	}
	if cfg.LastEvent > 0 && cfg.LastEvent < hi {
		hi = cfg.LastEvent
	}
	if lo >= hi {
		return nil, fmt.Errorf("crashtest: empty crash window (%d, %d] (schedule has %d events, %d in setup)",
			lo, hi, base.totalEv, base.setupEv)
	}
	points := pickPoints(lo, hi, cfg.Points, cfg.Seed)
	seeds := permSeeds(cfg.Seed, cfg.Perms)
	rep := &Report{
		Workload:    cfg.Workload,
		Ops:         cfg.Ops,
		SetupEvents: base.setupEv,
		TotalEvents: base.totalEv,
		Lanes:       base.lanes,
		Rotations:   base.rotations,
	}
	base.history.Walk(func(state *nvmm.CrashState) {
		if len(points) == 0 || state.Event() != points[0] {
			return
		}
		points = points[1:]
		rep.Points++
		for _, s := range seeds {
			rep.Cases++
			cfg.verifyCase(rep, base, state, s)
		}
	})
	return rep, nil
}

// verifyCase materializes one torn image, remounts it through recovery
// and checks both the metadata checker and the application oracle.
func (cfg *Config) verifyCase(rep *Report, base *runResult, state *nvmm.CrashState, seed uint64) {
	pt := state.Event()
	before := len(rep.Violations) + rep.Suppressed
	fs, dev, rolled := rep.remount(state, seed, cfg.fsOpts(), cfg.Log)
	if fs == nil {
		return
	}
	defer fs.Abandon()
	m := buildModel(base.recs, pt, base.setupEv)
	ovs := m.verify(fs)
	switch cfg.Workload {
	case "reuse":
		ovs = append(ovs, staleBytes(fs)...)
	case "overwrite":
		ovs = append(ovs, overwriteInvariants(fs, base.recs, pt, base.setupEv)...)
	}
	for _, ov := range ovs {
		rep.add(Violation{Event: pt, Seed: seed, Invariant: ov.invariant,
			Path: ov.path, Detail: ov.detail}, cfg.Log)
	}
	if cfg.Flight {
		cfg.verifyFlight(rep, base, fs, dev, pt, seed)
	}
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "point %d seed %#016x (%s, %d pending lines): rolled back %d, %d violations\n",
			pt, seed, state.Kind(), state.PendingLines(), rolled, len(rep.Violations)+rep.Suppressed-before)
	}
}
