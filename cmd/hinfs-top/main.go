// Command hinfs-top is a live per-tenant view of a running hinfs-server:
// it polls the server's Prometheus exposition endpoint (-debug-addr on
// hinfs-server) and renders per-tenant throughput, stage-attributed
// latency shares and recent-window latency quantiles, refreshed in
// place like top(1).
//
//	hinfs-top -addr 127.0.0.1:6070
//	hinfs-top -addr 127.0.0.1:6070 -interval 2s
//	hinfs-top -addr 127.0.0.1:6070 -n 1 -plain   # one-shot, no ANSI
//
// Rates (ops/s, MB/s) and stage shares are computed from deltas between
// consecutive scrapes; quantiles are the server's rotating-window gauges
// and need no history. The first frame therefore shows cumulative stage
// shares and no rates. The header reports the windows' coverage
// ("quantiles over last 8s") from hinfs_window_coverage_ns, and a footer
// reports the NVMM flight ring's append count when the server records
// one.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:6070", "hinfs-server debug address (host:port) or full /metrics URL")
		interval = flag.Duration("interval", time.Second, "poll interval")
		count    = flag.Int("n", 0, "number of frames to render (0 = until interrupted)")
		plain    = flag.Bool("plain", false, "append frames instead of redrawing in place (for logs and pipes)")
	)
	flag.Parse()

	url := *addr
	if !strings.Contains(url, "://") {
		url = "http://" + url + "/metrics"
	}

	var prev scrape
	for frame := 0; *count == 0 || frame < *count; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		cur, err := poll(url)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hinfs-top:", err)
			return 1
		}
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H") // clear and home
		}
		render(os.Stdout, url, cur, prev)
		prev = cur
	}
	return 0
}

// sample is one exposition line: a metric name, its label set and value.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one poll of the endpoint, indexed for the view.
type scrape struct {
	at      time.Time
	samples []sample
}

// get returns the value of the first sample matching name and the given
// label key/value pairs.
func (s *scrape) get(name string, kv ...string) (float64, bool) {
	for i := range s.samples {
		if s.samples[i].name != name {
			continue
		}
		ok := true
		for j := 0; j+1 < len(kv); j += 2 {
			if s.samples[i].labels[kv[j]] != kv[j+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.samples[i].value, true
		}
	}
	return 0, false
}

// tenants lists the tenant label values seen in the scrape, sorted.
func (s *scrape) tenants() []string {
	seen := map[string]bool{}
	for i := range s.samples {
		if t := s.samples[i].labels["tenant"]; t != "" && !seen[t] {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func poll(url string) (scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return scrape{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("%s: %s", url, resp.Status)
	}
	s := scrape{at: time.Now()}
	for _, line := range strings.Split(string(body), "\n") {
		if smp, ok := parseLine(line); ok {
			s.samples = append(s.samples, smp)
		}
	}
	return s, nil
}

// parseLine parses one Prometheus text-format sample line. Comment,
// blank and malformed lines report ok=false.
func parseLine(line string) (sample, bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return sample{}, false
	}
	smp := sample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		smp.name = rest[:i]
		j := strings.IndexByte(rest[i:], '}')
		if j < 0 {
			return sample{}, false
		}
		for _, pair := range strings.Split(rest[i+1:i+j], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				continue
			}
			smp.labels[k] = strings.Trim(v, `"`)
		}
		rest = strings.TrimSpace(rest[i+j+1:])
	} else {
		k := strings.IndexAny(rest, " \t")
		if k < 0 {
			return sample{}, false
		}
		smp.name = rest[:k]
		rest = strings.TrimSpace(rest[k:])
	}
	// Drop a trailing timestamp if present; the value is the first field.
	if k := strings.IndexAny(rest, " \t"); k >= 0 {
		rest = rest[:k]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return sample{}, false
	}
	smp.value = v
	return smp, true
}

// delta returns cur-prev for a cumulative metric, falling back to the
// cumulative value itself on the first frame (prev empty).
func delta(cur, prev scrape, name string, kv ...string) float64 {
	c, ok := cur.get(name, kv...)
	if !ok {
		return 0
	}
	if p, ok := prev.get(name, kv...); ok && c >= p {
		return c - p
	}
	return c
}

var stageCols = []string{"queue", "quota", "lock", "stall", "flush"}

func render(w io.Writer, url string, cur, prev scrape) {
	dt := 0.0
	if !prev.at.IsZero() {
		dt = cur.at.Sub(prev.at).Seconds()
	}
	fmt.Fprintf(w, "hinfs-top  %s  %s", url, cur.at.Format("15:04:05"))
	// Window coverage: how far back the rotating quantile windows reach,
	// so the p50/p99 columns read as "over the last Ns", not "ever".
	if cov, ok := cur.get("hinfs_window_coverage_ns"); ok && cov > 0 {
		fmt.Fprintf(w, "  quantiles over last %.0fs", cov/1e9)
	}
	fmt.Fprint(w, "\n\n")
	fmt.Fprintf(w, "%-10s %8s %8s %8s %6s", "tenant", "ops/s", "rMB/s", "wMB/s", "depth")
	for _, st := range stageCols {
		fmt.Fprintf(w, " %6s", st)
	}
	fmt.Fprintf(w, " %6s %10s %10s\n", "other", "p50(us)", "p99(us)")
	for _, tn := range cur.tenants() {
		ops := delta(cur, prev, "hinfs_tenant_ops_total", "tenant", tn)
		rB := delta(cur, prev, "hinfs_tenant_bytes_total", "tenant", tn, "dir", "read")
		wB := delta(cur, prev, "hinfs_tenant_bytes_total", "tenant", tn, "dir", "write")
		depth, _ := cur.get("hinfs_sched_queue_depth", "tenant", tn)
		measured := delta(cur, prev, "hinfs_tenant_measured_ns_total", "tenant", tn)
		if dt > 0 {
			ops, rB, wB = ops/dt, rB/dt, wB/dt
		}
		fmt.Fprintf(w, "%-10s %8.0f %8.2f %8.2f %6.0f", tn, ops, rB/(1<<20), wB/(1<<20), depth)
		attributed := 0.0
		for _, st := range stageCols {
			v := delta(cur, prev, "hinfs_tenant_stage_ns_total", "tenant", tn, "stage", st)
			attributed += v
			fmt.Fprintf(w, " %5.1f%%", 100*frac(v, measured))
		}
		fmt.Fprintf(w, " %5.1f%%", 100*frac(measured-attributed, measured))
		// Window quantiles: prefer the write class, fall back to read then
		// meta so an idle class doesn't blank the column.
		var p50, p99 float64
		for _, class := range []string{"write", "read", "meta"} {
			if v, ok := cur.get("hinfs_tenant_window_latency_ns", "tenant", tn, "class", class, "quantile", "0.5"); ok {
				p50 = v
				p99, _ = cur.get("hinfs_tenant_window_latency_ns", "tenant", tn, "class", class, "quantile", "0.99")
				break
			}
		}
		fmt.Fprintf(w, " %10.1f %10.1f\n", p50/1e3, p99/1e3)
	}
	if slow, ok := cur.get("hinfs_slow_ops_total"); ok && slow > 0 {
		fmt.Fprintf(w, "\nslow ops logged: %.0f (see server stderr for trace IDs)\n", slow)
	}
	if seq, ok := cur.get("hinfs_flight_seq"); ok {
		slots, _ := cur.get("hinfs_flight_slots")
		fmt.Fprintf(w, "\nflight ring: %.0f records appended (%.0f slots; survives a simulated power cut, lost at process exit)\n", seq, slots)
	}
}

func frac(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}
