// Package obs is the repository's observability layer: low-overhead
// latency histograms and a metrics registry exported over expvar/pprof.
//
// The paper's evaluation (Figs. 4/5, 12) argues from *where time goes* —
// per-op latency decomposed into NVMM write exposure, double-copy
// overhead and "Others" — so every layer of this repository records into
// an obs.Collector: op-class latency histograms at the VFS boundary
// (WrapFS), decision-path histograms inside HiNFS (direct vs buffered
// read, eager vs lazy write, foreground stalls, writeback batches, NVMM
// flushes).
//
// Everything is nil-safe: a nil *Collector (the default everywhere) makes
// every record call a single pointer test, so the instrumented hot paths
// cost nothing when observability is off.
package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram geometry: values are bucketed by order of magnitude (base 2)
// with histSub linear sub-buckets per octave, the classic HdrHistogram
// layout. Relative quantile error is bounded by 1/histSub (6.25%);
// values below histSub are exact.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// bucketOf maps a non-negative value to its bucket index. The mapping is
// monotone: v1 <= v2 implies bucketOf(v1) <= bucketOf(v2).
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	top := bits.Len64(u) - 1
	sub := (u >> (uint(top) - histSubBits)) & (histSub - 1)
	return (top-histSubBits+1)*histSub + int(sub)
}

// bucketLow returns the smallest value mapping to bucket b.
func bucketLow(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	top := b/histSub + histSubBits - 1
	sub := b % histSub
	return int64(histSub+sub) << (uint(top) - histSubBits)
}

// bucketMid returns a representative value for bucket b (its midpoint).
func bucketMid(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	top := b/histSub + histSubBits - 1
	width := int64(1) << (uint(top) - histSubBits)
	return bucketLow(b) + (width-1)/2
}

// Hist is a lock-free log-bucketed histogram of non-negative int64
// values (latencies in nanoseconds, batch sizes, ...). All methods are
// safe for concurrent use and nil-safe; the zero value is ready to use.
//
// Recording is one atomic add per counter — no locks, no allocation —
// so a Hist can sit on a hot path. Snapshots taken concurrently with
// writers are internally consistent per counter but may straddle an
// in-flight observation; Reset is meant for quiesced phase boundaries.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v (negative values clamp to zero).
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start in nanoseconds.
func (h *Hist) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Merge adds o's observations into h. Merging is commutative and
// associative: merging the per-thread histograms of a run in any order
// yields the same aggregate.
func (h *Hist) Merge(o *Hist) {
	if h == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			break
		}
	}
}

// Reset zeroes the histogram. Concurrent observers may leave residue;
// call it only at quiesced phase boundaries.
func (h *Hist) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Bucket is one non-empty histogram bucket in a snapshot: Count
// observations fell in [Low, High).
type Bucket struct {
	Low   int64 `json:"low"`
	High  int64 `json:"high"`
	Count int64 `json:"count"`
}

// HistSnapshot is an immutable copy of a histogram, the unit of export:
// quantiles, CDFs and JSON all derive from it.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the current state. Safe under concurrent writers.
func (h *Hist) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, Bucket{
				Low:   bucketLow(i),
				High:  bucketLow(i + 1),
				Count: n,
			})
		}
	}
	return s
}

// Quantile returns the value at quantile q in [0,1]: the representative
// (midpoint) of the bucket holding the q-th observation, clamped to Max.
// It is monotone in q. Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	if q < 0 {
		q = 0
	}
	rank := int64(q*float64(s.Count)) + 1
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			// Low+High here are bucket bounds; the midpoint matches
			// bucketMid for the reconstructed index.
			mid := b.Low + (b.High-b.Low-1)/2
			if mid > s.Max {
				mid = s.Max
			}
			return mid
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the observations.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// CDFPoint is one cumulative-distribution sample: Frac of all
// observations were <= Value.
type CDFPoint struct {
	Value int64   `json:"value"`
	Frac  float64 `json:"frac"`
}

// CDF returns the cumulative distribution over the non-empty buckets,
// suitable for plotting latency CDFs as related NVMM work does.
func (s HistSnapshot) CDF() []CDFPoint {
	if s.Count == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, len(s.Buckets))
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		v := b.High - 1
		if v > s.Max {
			v = s.Max
		}
		out = append(out, CDFPoint{Value: v, Frac: float64(cum) / float64(s.Count)})
	}
	return out
}

// Percentiles returns the standard latency summary (p50/p90/p99/p999).
func (s HistSnapshot) Percentiles() (p50, p90, p99, p999 int64) {
	return s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99), s.Quantile(0.999)
}

// String summarizes the snapshot as durations (values read as ns).
func (s HistSnapshot) String() string {
	p50, p90, p99, p999 := s.Percentiles()
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v p999=%v max=%v",
		s.Count, time.Duration(p50), time.Duration(p90),
		time.Duration(p99), time.Duration(p999), time.Duration(s.Max))
}
