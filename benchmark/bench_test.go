package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := streamHash(w.generator(7, 0), 5000)
		if b := streamHash(w.generator(7, 0), 5000); a != b {
			t.Errorf("%s: same seed, different streams: %x and %x", w.name, a, b)
		}
		if c := streamHash(w.generator(8, 0), 5000); a == c {
			t.Errorf("%s: seeds 7 and 8 give the same stream %x", w.name, a)
		}
		if w.served {
			if c := streamHash(w.generator(7, 1), 5000); a == c {
				t.Errorf("%s: both tenants get the same stream %x", w.name, a)
			}
		}
	}
	if p, q := newPool(7), newPool(7); string(p) != string(q) {
		t.Error("same seed, different payload pools")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileMeanAndSpread(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.99, 49.6}, {1, 50}} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := mean(s); !near(got, 30) {
		t.Errorf("mean = %v, want 30", got)
	}
	if quantile(nil, 0.5) != 0 || mean(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(ten); !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// Python: statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	a, b := traceID(0, 1, true), traceID(0, 2, true)
	u, orphan := traceID(1, 1, true), traceID(1, 9, true)
	spans := []span{
		// A synchronous call: each layer has one child.
		{trace: a, layer: layerClient, start: 0, end: 100, ops: 1},
		{trace: a, layer: layerVFS, start: 20, end: 80, ops: 1},
		{trace: a, layer: layerCore, start: 30, end: 70, ops: 1},
		// A burst of three: two children overlap in time, one stands apart.
		{trace: b, layer: layerClient, start: 200, end: 400, ops: 3},
		{trace: b, layer: layerVFS, start: 210, end: 260, ops: 1},
		{trace: b + 1, layer: layerVFS, start: 250, end: 300, ops: 1},
		{trace: b + 2, layer: layerVFS, start: 320, end: 350, ops: 1},
		{trace: b + 1, layer: layerCore, start: 255, end: 295, ops: 1},
		// One call that is two calls under the server (an unlink).
		{trace: u, layer: layerClient, start: 500, end: 600, ops: 1},
		{trace: u, layer: layerVFS, start: 510, end: 520, ops: 1},
		{trace: u, layer: layerVFS, start: 525, end: 560, ops: 1},
		{trace: u, layer: layerCore, start: 526, end: 559, ops: 1},
		// A span whose caller was overwritten in the ring.
		{trace: orphan, layer: layerVFS, start: 700, end: 710, ops: 1},
	}
	parent := linkSpans(spans)
	for i, s := range spans {
		switch {
		case s.layer == layerClient || s.trace == orphan:
			if parent[i] != -1 {
				t.Errorf("span %d (%s %x) has parent %d, want none", i, layerNames[s.layer], s.trace, parent[i])
			}
		case parent[i] < 0:
			t.Errorf("span %d (%s %x) has no parent", i, layerNames[s.layer], s.trace)
		default:
			p := spans[parent[i]]
			if p.layer != s.layer-1 || s.start < p.start || s.end > p.end {
				t.Errorf("span %d (%s %x) is under %s [%d,%d]", i, layerNames[s.layer], s.trace, layerNames[p.layer], p.start, p.end)
			}
		}
	}
	lt := selfTimes(spans, parent)
	if lt.ops != 5 {
		t.Errorf("ops = %d, want 5", lt.ops)
	}
	// client: (100-60) + (200-(90+30)) + (100-(10+35))
	if want := 40.0 + 80 + 55; lt.self[layerClient] != want {
		t.Errorf("client self time = %v, want %v", lt.self[layerClient], want)
	}
	// vfs: (60-40) + 50 + (50-40) + 30 + 10 + (35-33) + the orphan's 10
	if want := 20.0 + 50 + 10 + 30 + 10 + 2 + 10; lt.self[layerVFS] != want {
		t.Errorf("vfs self time = %v, want %v", lt.self[layerVFS], want)
	}
	if want := 40.0 + 40 + 33; lt.total[layerCore] != want || lt.self[layerCore] != want {
		t.Errorf("core time = %v self %v, want %v", lt.total[layerCore], lt.self[layerCore], want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the benchmark's own lists: no
// workload or metric missing, none extra, and what it says of each agrees.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d exist", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here (or their reasons differ)", i, got.Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a reason of %d characters", w.name, len(w.why))
		}
	}
	seen := make(map[string]bool)
	for _, lists := range [][2][]metricDef{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		listed, defs := lists[0], lists[1]
		if len(listed) != len(defs) {
			t.Fatalf("%d metrics listed, %d defined", len(listed), len(defs))
		}
		for i, d := range defs {
			d.Moves = "" // the contract's schema has no place for the prediction
			if listed[i] != d {
				t.Errorf("metric %d is %+v in BENCHMARK.json, %+v here", i, listed[i], d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	m := map[string]float64{"ops_per_s": 1234.5}
	r := finish(&window{attempted: 10}, checked{attempted: 2}, m, endToEnd)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Attempted != 12 || back.Failed != 0 || len(back.Metrics) != len(endToEnd) {
		t.Errorf("round trip gave %+v", back)
	}
	for _, d := range endToEnd {
		if v, ok := back.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s came back as %+v (present: %v)", d.Name, v, ok)
		}
	}
	if back.Metrics["ops_per_s"].Value != 1234.5 {
		t.Errorf("ops_per_s came back as %v", back.Metrics["ops_per_s"].Value)
	}
}

// TestSmoke runs the untraced pass of all five workloads and the traced pass
// of one on short windows: nothing may fail, every end-to-end metric must be
// there and not 0, and every per-layer metric must be there.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Chdir(t.TempDir()) // span files land in ./out
	o := options{seed: 3, window: 300 * time.Millisecond}
	for _, w := range workloads {
		win, v, m, err := e2e(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := finish(win, v, m, endToEnd)
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v %v", w.name, r.Failed, r.Attempted, win.firstErr, v.firstErr)
		}
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: %s = %v (present: %v), want more than 0", w.name, d.Name, v.Value, ok)
			}
		}
	}
	w := findWorkload("served-batch")
	r, err := traced(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Errorf("traced %s: %d of %d failed", w.name, r.Failed, r.Attempted)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("traced %s: %d metrics, want %d", w.name, len(r.Metrics), len(perLayer))
	}
	for _, name := range []string{"trace.spans", "server.self_us_per_op", "core.span_us_per_op", "flight.records_per_op", "nvmm.fences_elided_per_op"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("traced %s: %s = %v, want more than 0", w.name, name, r.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(filepath.Join("out", "trace-served-batch.jsonl")); err != nil {
		t.Error(err)
	}
}
