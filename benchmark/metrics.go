package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric. Bound is an end-to-end metric's regression
// bound: the share of the parent's median by which it may worsen. Moves is
// a per-layer metric's prediction: the end-to-end metric, and the workload,
// it should move.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. failed_share, the 14th, is
// absolute (it must be 0) and travels as the result's failed/attempted.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10},
	{Name: "read_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "read_mean_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: lower, Bound: 0.20},
	{Name: "write_mean_us", Unit: "us", Better: lower, Bound: 0.20},
	{Name: "fsync_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "fsync_mean_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "meta_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "meta_mean_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "burst_p50_us", Unit: "us", Better: lower, Bound: 0.15},
	{Name: "nvmm_bytes_per_user_byte", Unit: "B/B", Better: lower, Bound: 0.05},
	{Name: "mem_peak_mib", Unit: "MiB", Better: lower, Bound: 0.10},
}

const (
	onSync   = "fsync_mean_us, write_mean_us on sync-small"
	onLazy   = "write_mean_us, ops_per_s on lazy-rw"
	onChurn  = "meta_mean_us, ops_per_s on meta-churn"
	onServed = "read/write/meta_p50_us, ops_per_s on served-sync"
	onBatch  = "ops_per_s, burst_p50_us on served-batch"
	onAmp    = "nvmm_bytes_per_user_byte everywhere"
	explains = "diagnostic"
)

// perLayer is the ledger: counts are Stats() deltas over the traced window
// per op, *_sw_ns and *_allocs are isolated drives on a zero-latency
// device, *span*/*self* come from the benchmark's spans.
var perLayer = []metricDef{
	{Name: "nvmm.flushes_per_op", Unit: "count", Better: lower, Moves: onSync},
	{Name: "nvmm.fences_per_op", Unit: "count", Better: lower, Moves: onSync},
	{Name: "nvmm.fences_elided_per_op", Unit: "count", Better: higher, Moves: "ops_per_s on served-batch only"},
	{Name: "nvmm.flushed_bytes_per_op", Unit: "B", Better: lower, Moves: onAmp},
	{Name: "nvmm.bytes_read_per_op", Unit: "B", Better: lower, Moves: "read_mean_us on lazy-rw"},
	{Name: "nvmm.model_write_us_per_op", Unit: "us", Better: lower, Moves: onSync},
	{Name: "nvmm.write_busy_share", Unit: "share", Better: lower, Moves: "ops_per_s on lazy-rw once it nears 1"},
	{Name: "nvmm.persist_sw_ns_per_line", Unit: "ns", Better: lower, Moves: onSync},
	{Name: "nvmm.fence_sw_ns", Unit: "ns", Better: lower, Moves: onSync},

	{Name: "journal.entries_per_op", Unit: "count", Better: lower, Moves: onChurn},
	{Name: "journal.commits_per_op", Unit: "count", Better: lower, Moves: onChurn + "; fsync_mean_us on sync-small"},
	{Name: "journal.checkpoints", Unit: "count", Better: lower, Moves: onChurn},
	{Name: "journal.stalls", Unit: "count", Better: lower, Moves: onChurn},
	{Name: "journal.lane_contended", Unit: "count", Better: lower, Moves: "none with one client; served-* under load"},
	{Name: "journal.tx_sw_ns", Unit: "ns", Better: lower, Moves: onChurn},
	{Name: "journal.tx_allocs", Unit: "count", Better: lower, Moves: onChurn},

	{Name: "pmfs.alloc_words_scanned_per_op", Unit: "count", Better: lower, Moves: "meta_p50_us on meta-churn"},
	{Name: "pmfs.alloc_steals", Unit: "count", Better: lower, Moves: "meta_p50_us on meta-churn"},
	{Name: "pmfs.dirlock_contended", Unit: "count", Better: lower, Moves: "meta_p50_us on served-*"},
	{Name: "pmfs.mount_ms", Unit: "ms", Better: lower, Moves: "none in-window (recovery plus allocator rebuild)"},
	{Name: "pmfs.fsck_errors", Unit: "count", Better: lower, Moves: "failed_share everywhere"},
	{Name: "pmfs.write4k_sw_ns", Unit: "ns", Better: lower, Moves: "write_p50_us on sync-small"},
	{Name: "pmfs.read4k_sw_ns", Unit: "ns", Better: lower, Moves: "read_p50_us on sync-small"},
	{Name: "pmfs.create_unlink_sw_ns", Unit: "ns", Better: lower, Moves: "meta_p50_us on meta-churn"},
	{Name: "pmfs.write4k_allocs", Unit: "count", Better: lower, Moves: "write_p50_us on sync-small"},

	{Name: "buffer.write_hit_ratio", Unit: "ratio", Better: higher, Moves: "write_p50_us on lazy-rw"},
	{Name: "buffer.lines_fetched_per_op", Unit: "count", Better: lower, Moves: "write_mean_us on lazy-rw"},
	{Name: "buffer.lines_flushed_per_op", Unit: "count", Better: lower, Moves: "nvmm_bytes_per_user_byte on lazy-rw; flat on sync-small"},
	{Name: "buffer.evictions_per_op", Unit: "count", Better: lower, Moves: onLazy},
	{Name: "buffer.stalls_per_kop", Unit: "count", Better: lower, Moves: onLazy},
	{Name: "buffer.stall_us_per_op", Unit: "us", Better: lower, Moves: onLazy},
	{Name: "buffer.writeback_blocks_per_batch", Unit: "count", Better: higher, Moves: onLazy},
	{Name: "buffer.drops_per_op", Unit: "count", Better: higher, Moves: "nvmm_bytes_per_user_byte on meta-churn"},
	{Name: "buffer.unmount_flush_ms", Unit: "ms", Better: lower, Moves: "none in-window (drain after it)"},
	{Name: "buffer.write_hit_sw_ns", Unit: "ns", Better: lower, Moves: "write_p50_us on lazy-rw"},
	{Name: "buffer.write_miss_sw_ns", Unit: "ns", Better: lower, Moves: "write_mean_us on lazy-rw"},
	{Name: "buffer.read_merge_sw_ns", Unit: "ns", Better: lower, Moves: "read_p50_us on lazy-rw"},
	{Name: "buffer.flush_sw_ns_per_block", Unit: "ns", Better: lower, Moves: onLazy},

	{Name: "benefit.eager_block_share", Unit: "share", Better: higher, Moves: onSync + " (to 1); write_p50_us on lazy-rw (to 0)"},
	{Name: "benefit.accuracy", Unit: "ratio", Better: higher, Moves: onSync},
	{Name: "benefit.ghost_len", Unit: "count", Better: lower, Moves: "mem_peak_mib everywhere"},
	{Name: "benefit.classify_sw_ns", Unit: "ns", Better: lower, Moves: "write_p50_us on lazy-rw"},
	{Name: "benefit.onsync_sw_ns", Unit: "ns", Better: lower, Moves: "fsync_mean_us on sync-small"},

	{Name: "core.lazy_write_p50_us", Unit: "us", Better: lower, Moves: "write_p50_us on lazy-rw"},
	{Name: "core.eager_write_p50_us", Unit: "us", Better: lower, Moves: "write_p50_us on sync-small"},
	{Name: "core.direct_read_p50_us", Unit: "us", Better: lower, Moves: "read_p50_us on sync-small"},
	{Name: "core.buffered_read_p50_us", Unit: "us", Better: lower, Moves: "read_p50_us on lazy-rw"},
	{Name: "core.nvmm_flush_p50_us", Unit: "us", Better: lower, Moves: onSync},
	{Name: "core.copy_bytes_per_user_byte", Unit: "B/B", Better: lower, Moves: "write_mean_us on lazy-rw"},
	{Name: "core.span_us_per_op", Unit: "us", Better: lower, Moves: "every latency on local workloads"},
	{Name: "core.write4k_lazy_sw_ns", Unit: "ns", Better: lower, Moves: "write_p50_us on lazy-rw"},
	{Name: "core.write4k_fsync_sw_ns", Unit: "ns", Better: lower, Moves: "fsync_mean_us on sync-small"},
	{Name: "core.read4k_sw_ns", Unit: "ns", Better: lower, Moves: "read_p50_us on lazy-rw"},
	{Name: "core.create_unlink_sw_ns", Unit: "ns", Better: lower, Moves: "meta_p50_us on meta-churn"},
	{Name: "core.write4k_allocs", Unit: "count", Better: lower, Moves: "write_p50_us on lazy-rw"},

	{Name: "server.service_us_per_op", Unit: "us", Better: lower, Moves: onServed},
	{Name: "server.queue_us_per_op", Unit: "us", Better: lower, Moves: onServed + "; " + onBatch},
	{Name: "server.lock_us_per_op", Unit: "us", Better: lower, Moves: onServed},
	{Name: "server.stall_us_per_op", Unit: "us", Better: lower, Moves: onServed},
	{Name: "server.flush_us_per_op", Unit: "us", Better: lower, Moves: onServed},
	{Name: "server.unattributed_us_per_op", Unit: "us", Better: lower, Moves: onServed},
	{Name: "server.sched_est_err_us_per_op", Unit: "us", Better: lower, Moves: "none (fairness, not speed)"},
	{Name: "server.quota_rejects", Unit: "count", Better: lower, Moves: "failed_share on served-*"},
	{Name: "server.wire_us_per_op", Unit: "us", Better: lower, Moves: onServed},
	{Name: "server.batch_depth", Unit: "count", Better: higher, Moves: onBatch},
	{Name: "server.self_us_per_op", Unit: "us", Better: lower, Moves: onServed + "; " + onBatch},
	{Name: "server.rtt_sw_ns", Unit: "ns", Better: lower, Moves: onServed},
	{Name: "server.batch32_sw_ns_per_op", Unit: "ns", Better: lower, Moves: onBatch},
	{Name: "server.rtt_allocs", Unit: "count", Better: lower, Moves: onServed},

	{Name: "flight.records_per_op", Unit: "count", Better: lower, Moves: "ops_per_s on served-* (must be 1 there)"},
	{Name: "flight.record_sw_ns", Unit: "ns", Better: lower, Moves: "ops_per_s on served-*"},
	{Name: "obs.wrap_self_us_per_op", Unit: "us", Better: lower, Moves: "ops_per_s on served-* when collection is on"},

	{Name: "client.read_p99_us", Unit: "us", Better: lower, Moves: explains + ": read_mean_us"},
	{Name: "client.write_p99_us", Unit: "us", Better: lower, Moves: explains + ": write_mean_us"},
	{Name: "client.fsync_p99_us", Unit: "us", Better: lower, Moves: explains + ": fsync_mean_us"},
	{Name: "client.meta_p99_us", Unit: "us", Better: lower, Moves: explains + ": meta_mean_us"},
	{Name: "client.read_p999_us", Unit: "us", Better: lower, Moves: explains + ": read_mean_us"},
	{Name: "client.write_p999_us", Unit: "us", Better: lower, Moves: explains + ": write_mean_us"},
	{Name: "client.fsync_p999_us", Unit: "us", Better: lower, Moves: explains + ": fsync_mean_us"},
	{Name: "client.meta_p999_us", Unit: "us", Better: lower, Moves: explains + ": meta_mean_us"},
	{Name: "client.samples", Unit: "count", Better: higher, Moves: explains + ": how many samples stand behind the tails"},
	{Name: "client.gen_share", Unit: "share", Better: lower, Moves: explains + ": window time outside op calls"},
	{Name: "client.span_us_per_op", Unit: "us", Better: lower, Moves: explains + ": what the layer self times must add up to"},

	{Name: "proc.allocs_per_op", Unit: "count", Better: lower, Moves: explains + ": mem_peak_mib, GC-borne *_mean_us"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: lower, Moves: explains + ": mem_peak_mib, GC-borne *_mean_us"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower, Moves: explains + ": *_mean_us"},
	{Name: "proc.cpu_s_per_mop", Unit: "s", Better: lower, Moves: explains + ": ops_per_s"},

	{Name: "trace.overhead_share", Unit: "share", Better: lower, Moves: "none (cost of the traced pass itself)"},
	{Name: "trace.spans", Unit: "count", Better: higher, Moves: "none (spans retained)"},
}

// quantile is the q-quantile of a sorted sample, interpolated between
// neighbours.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

func mean(s []uint32) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(v, n=4): the cut points the
// acceptance rule measures spread with. It needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func us(ns float64) float64          { return ns / 1e3 }
func ms(d time.Duration) float64     { return float64(d.Nanoseconds()) / 1e6 }
func per(n int64, ops int64) float64 { return ratio(float64(n), float64(ops)) }
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// e2eMetrics derives the end-to-end metrics of an untraced window.
func e2eMetrics(w *window, setup time.Duration, memPeakMiB float64) map[string]float64 {
	m := map[string]float64{
		"setup_s":                  setup.Seconds(),
		"ops_per_s":                float64(w.ops) / w.wall.Seconds(),
		"burst_p50_us":             us(quantile(w.bursts, 0.5)),
		"nvmm_bytes_per_user_byte": per(w.after.BytesFlushed-w.before.BytesFlushed, w.userBytes),
		"mem_peak_mib":             memPeakMiB,
	}
	for cl, name := range classNames {
		m[name+"_p50_us"] = us(quantile(w.lat[cl], 0.5))
		m[name+"_mean_us"] = us(mean(w.lat[cl]))
	}
	return m
}

// clientMetrics derives the non-gating client.* and proc.* diagnostics of
// an untraced window.
func clientMetrics(w *window, m map[string]float64) {
	samples := 0
	for cl, name := range classNames {
		m["client."+name+"_p99_us"] = us(quantile(w.lat[cl], 0.99))
		m["client."+name+"_p999_us"] = us(quantile(w.lat[cl], 0.999))
		samples += len(w.lat[cl])
	}
	m["client.samples"] = float64(samples)
	m["client.gen_share"] = 1 - ratio(float64(w.busyNS), float64(w.clients)*float64(w.wall.Nanoseconds()))
	m["proc.allocs_per_op"] = per(int64(w.proc1.mallocs-w.proc0.mallocs), w.ops)
	m["proc.alloc_bytes_per_op"] = per(int64(w.proc1.allocBytes-w.proc0.allocBytes), w.ops)
	m["proc.gc_pause_ms"] = float64(w.proc1.gcPauseNS-w.proc0.gcPauseNS) / 1e6
	m["proc.cpu_s_per_mop"] = ratio((w.proc1.cpu-w.proc0.cpu).Seconds()*1e6, float64(w.ops))
}

// countMetrics turns the layers' Stats() deltas over a window into per-op
// counts.
func countMetrics(w *window, m map[string]float64) {
	a, b, ops := w.after, w.before, w.ops
	m["nvmm.flushes_per_op"] = per(a.Flushes-b.Flushes, ops)
	m["nvmm.fences_per_op"] = per(a.Fences-b.Fences, ops)
	m["nvmm.fences_elided_per_op"] = per(a.FencesElided-b.FencesElided, ops)
	m["nvmm.flushed_bytes_per_op"] = per(a.BytesFlushed-b.BytesFlushed, ops)
	m["nvmm.bytes_read_per_op"] = per(a.BytesRead-b.BytesRead, ops)
	m["nvmm.model_write_us_per_op"] = us(per(a.WriteTimeNS-b.WriteTimeNS, ops))
	m["nvmm.write_busy_share"] = ratio(float64(a.WriteTimeNS-b.WriteTimeNS), float64(w.wall.Nanoseconds()))

	m["journal.entries_per_op"] = per(a.JEntries-b.JEntries, ops)
	m["journal.commits_per_op"] = per(a.JCommits-b.JCommits, ops)
	m["journal.checkpoints"] = float64(a.JCheckpoints - b.JCheckpoints)
	m["journal.stalls"] = float64(a.JStalls - b.JStalls)
	m["journal.lane_contended"] = float64(a.JLaneContended - b.JLaneContended)

	m["pmfs.alloc_words_scanned_per_op"] = per(a.AllocWords-b.AllocWords, ops)
	m["pmfs.alloc_steals"] = float64(a.AllocSteals - b.AllocSteals)
	m["pmfs.dirlock_contended"] = float64(a.DirContended - b.DirContended)

	hits, misses := a.WriteHits-b.WriteHits, a.WriteMisses-b.WriteMisses
	m["buffer.write_hit_ratio"] = per(hits, hits+misses)
	m["buffer.lines_fetched_per_op"] = per(a.LinesFetched-b.LinesFetched, ops)
	m["buffer.lines_flushed_per_op"] = per(a.LinesFlushed-b.LinesFlushed, ops)
	m["buffer.evictions_per_op"] = per(a.Evictions-b.Evictions, ops)
	m["buffer.stalls_per_kop"] = 1e3 * per(a.Stalls-b.Stalls, ops)
	m["buffer.stall_us_per_op"] = us(per(a.StallNS-b.StallNS, ops))
	m["buffer.writeback_blocks_per_batch"] = per(a.WBBlocks-b.WBBlocks, a.WBBatches-b.WBBatches)
	m["buffer.drops_per_op"] = per(a.Drops-b.Drops, ops)

	eager, lazy := a.EagerBlocks-b.EagerBlocks, a.LazyBlocks-b.LazyBlocks
	m["benefit.eager_block_share"] = per(eager, eager+lazy)
	m["benefit.accuracy"] = per(a.BenefitAccurate-b.BenefitAccurate, a.BenefitDecisions-b.BenefitDecisions)
	m["core.copy_bytes_per_user_byte"] = per(a.CopyWriteBytes-b.CopyWriteBytes, w.userBytes)

	srvOps := a.SrvOps - b.SrvOps
	measured := a.SrvMeasuredNS - b.SrvMeasuredNS
	attributed := (a.SrvQueueNS - b.SrvQueueNS) + (a.SrvQuotaNS - b.SrvQuotaNS) + (a.SrvLockNS - b.SrvLockNS) +
		(a.SrvStallNS - b.SrvStallNS) + (a.SrvFlushNS - b.SrvFlushNS)
	m["server.service_us_per_op"] = us(per(a.SrvServiceNS-b.SrvServiceNS, srvOps))
	m["server.queue_us_per_op"] = us(per(a.SrvQueueNS-b.SrvQueueNS, srvOps))
	m["server.lock_us_per_op"] = us(per(a.SrvLockNS-b.SrvLockNS, srvOps))
	m["server.stall_us_per_op"] = us(per(a.SrvStallNS-b.SrvStallNS, srvOps))
	m["server.flush_us_per_op"] = us(per(a.SrvFlushNS-b.SrvFlushNS, srvOps))
	m["server.unattributed_us_per_op"] = us(per(measured-attributed, srvOps))
	m["server.sched_est_err_us_per_op"] = us(per(a.SrvEstErrNS-b.SrvEstErrNS, srvOps))
	m["server.quota_rejects"] = float64(a.SrvRejects - b.SrvRejects)
	// What a synchronous client waited beyond the server's own admission-
	// to-completion time: the wire, framing and the two turnarounds. A
	// pipelined burst overlaps them, so there the difference means nothing.
	m["server.wire_us_per_op"], m["server.batch_depth"] = 0, w.depth
	if srvOps > 0 && w.depth == 0 {
		m["server.wire_us_per_op"] = us(per(w.busyNS, ops) - per(measured, srvOps))
		m["server.batch_depth"] = 1
	}
	m["flight.records_per_op"] = per(a.FlightSeq-b.FlightSeq, ops)
}

// spanMetrics turns the spans' layer times into per-op microseconds.
func spanMetrics(lt layerTimes, served bool, retained int, m map[string]float64) {
	ops := float64(lt.ops)
	m["client.span_us_per_op"] = us(ratio(lt.total[layerClient], ops))
	m["server.self_us_per_op"] = 0
	if served {
		m["server.self_us_per_op"] = us(ratio(lt.self[layerClient], ops))
	}
	m["obs.wrap_self_us_per_op"] = us(ratio(lt.self[layerVFS], ops))
	m["core.span_us_per_op"] = us(ratio(lt.total[layerCore], ops))
	m["trace.spans"] = float64(retained)
}
