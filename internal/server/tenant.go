package server

import (
	"sync/atomic"

	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// TenantConfig declares one tenant of the server.
type TenantConfig struct {
	// Root is the tenant's namespace root on the backing file system; the
	// tenant sees it as "/" and structurally cannot name anything outside
	// it (vfs.Sub). Created at server construction if missing.
	Root string
	// Weight is the tenant's fair-share weight (default 1): under
	// contention, tenants receive service in the ratio of their weights.
	Weight int
	// QuotaBytes caps the tenant's logical byte usage (file sizes, not
	// allocated blocks); 0 means unlimited. Accounting is approximate —
	// size deltas observed at the server, not an fsck of the subtree — so
	// it bounds abuse, it is not a billing meter.
	QuotaBytes int64
}

// tenant is the server-side state of one tenant.
type tenant struct {
	name string
	view vfs.FileSystem // Sub-rooted at cfg.Root
	cfg  TenantConfig
	used atomic.Int64 // approximate logical bytes
	// rejects counts quota rejections.
	rejects atomic.Int64
	ops     atomic.Int64
	bytesR  atomic.Int64
	bytesW  atomic.Int64
	// Service-time histograms (ns) per latency class, measured from
	// scheduler admission to completion, so they include queueing — the
	// latency a fair scheduler actually controls.
	lat [numClasses]obs.Hist
	// win is the same admission-to-completion latency per class, but in
	// rotating windows, so p99/p999 can be read over recent time instead
	// of only end-of-run.
	win [numClasses]*obs.Windows
	// stageNS accumulates each op's per-stage breakdown: where the
	// tenant's measured latency actually went.
	stageNS [obs.NumStages]atomic.Int64
}

// Latency classes: the index of a tenant's histograms and the "class"
// label of /metrics.
const (
	classMeta = iota
	classRead
	classWrite
	numClasses
)

func latClass(op vfs.Op) int {
	switch op {
	case vfs.OpRead:
		return classRead
	case vfs.OpWrite:
		return classWrite
	}
	return classMeta
}

// record folds one completed op's measurements into the tenant:
// class histogram, window, per-stage sums.
func (t *tenant) record(op vfs.Op, latNS int64, ctx *obs.OpCtx) {
	t.ops.Add(1)
	class := latClass(op)
	t.lat[class].Observe(latNS)
	t.win[class].Observe(latNS)
	for _, st := range obs.Stages() {
		if ns := ctx.StageNS(st); ns > 0 {
			t.stageNS[st].Add(ns)
		}
	}
}

// chargeGrow admits growth bytes against the quota, returning ErrQuota
// without charging when the tenant would exceed it. Concurrent charges
// may transiently overshoot by the in-flight amount; the subsequent
// settle keeps the long-run balance honest.
func (t *tenant) chargeGrow(growth int64) error {
	if growth <= 0 || t.cfg.QuotaBytes == 0 {
		return nil
	}
	if t.used.Add(growth) > t.cfg.QuotaBytes {
		t.used.Add(-growth)
		t.rejects.Add(1)
		return ErrQuota
	}
	return nil
}

// settle adjusts the balance after an operation whose actual size delta
// differed from the admitted estimate (short write, truncate, unlink).
func (t *tenant) settle(delta int64) {
	if t.cfg.QuotaBytes == 0 || delta == 0 {
		return
	}
	if t.used.Add(delta) < 0 {
		// Approximate accounting can undershoot (e.g. two handles
		// truncating the same file); clamp at zero.
		t.used.Store(0)
	}
}

// TenantStats is a point-in-time summary of one tenant, exported for the
// load generator, the benchmark figure and the debug endpoint.
type TenantStats struct {
	Name         string
	Weight       int
	Ops          int64
	BytesRead    int64
	BytesWritten int64
	UsedBytes    int64
	QuotaBytes   int64
	QuotaRejects int64
	// ServiceNS is the measured worker time the tenant has consumed —
	// the quantity the fair-share weights divide.
	ServiceNS int64
	ReadLat   obs.HistSnapshot
	WriteLat  obs.HistSnapshot
	MetaLat   obs.HistSnapshot
	// StageNS attributes the tenant's cumulative measured latency to
	// stages, keyed by obs.Stage names. queue+quota+lock+stall+flush is
	// the attributed part; "service" is total worker time (containing
	// the middle four); measured-minus-attributed is unaccounted compute
	// (memcpy, framing, handle lookups).
	StageNS map[string]int64
	// Sched is the tenant's live scheduler state.
	Sched SchedStats
	// WindowLat is the admission-to-completion latency over the recent
	// metric windows, per class ("read"/"write"/"meta") — the time-series
	// view the exposition endpoint serves quantiles from.
	WindowLat map[string]obs.HistSnapshot
}

// MeasuredNS returns the tenant's cumulative admission-to-completion
// latency (the denominator of the stage attribution shares).
func (ts *TenantStats) MeasuredNS() int64 {
	return ts.ReadLat.Sum + ts.WriteLat.Sum + ts.MetaLat.Sum
}

func (t *tenant) stats() TenantStats {
	stages := make(map[string]int64, obs.NumStages)
	for _, st := range obs.Stages() {
		if v := t.stageNS[st].Load(); v != 0 {
			stages[st.String()] = v
		}
	}
	return TenantStats{
		Name:         t.name,
		Weight:       t.cfg.Weight,
		Ops:          t.ops.Load(),
		BytesRead:    t.bytesR.Load(),
		BytesWritten: t.bytesW.Load(),
		UsedBytes:    t.used.Load(),
		QuotaBytes:   t.cfg.QuotaBytes,
		QuotaRejects: t.rejects.Load(),
		ReadLat:      t.lat[classRead].Snapshot(),
		WriteLat:     t.lat[classWrite].Snapshot(),
		MetaLat:      t.lat[classMeta].Snapshot(),
		StageNS:      stages,
		WindowLat: map[string]obs.HistSnapshot{
			"read":  t.win[classRead].Merged(0),
			"write": t.win[classWrite].Merged(0),
			"meta":  t.win[classMeta].Merged(0),
		},
	}
}
