package crashtest

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hinfs/internal/core"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs/flight"
	"hinfs/internal/pmfs"
	"hinfs/internal/server"
	"hinfs/internal/vfs"
	"hinfs/internal/workload"
)

// TrafficConfig parameterizes chaos-under-traffic exploration: the
// multi-tenant wire server under concurrent client load, crashed at a
// sampled persist event, with the recovered flight-record suffix
// cross-checked against the op schedule the clients know they issued.
//
// Unlike Explore, runs are not deterministic (real goroutines, real
// clock): each crash point is an independent run carrying its own op
// log. The join between that log and the recovered ring is the trace
// ID — every client reseeds its trace generator (Client.SetTraceBase)
// so op k of client c is trace c<<32+k, predictable on both sides.
type TrafficConfig struct {
	// Points is the number of independent crash runs (default 6).
	Points int
	// Perms is the number of torn-cacheline permutations per point
	// (default 3, seed 0 first — the drop-everything crash).
	Perms int
	// Seed drives crash-point sampling and permutation seeds (default 1).
	Seed uint64
	// ClientsPerTenant is the concurrent client count per tenant
	// (default 2; tenants are fixed: gold weight 4, bronze weight 1).
	ClientsPerTenant int
	// Chunk is the append size in bytes (default 1024). Every client
	// appends fixed-size pattern chunks to its own file, so a recovered
	// size that is not a chunk boundary is a torn lazy write.
	Chunk int
	// FsyncEvery issues an fsync after every Nth append (default 4).
	FsyncEvery int
	// HorizonEvents bounds how far past warm-up the crash event is
	// sampled (default 600).
	HorizonEvents int64
	// DeviceSize is the emulated NVMM capacity (default 24 MB).
	DeviceSize int64
	// BufferBlocks is the DRAM write-buffer size (default 512).
	BufferBlocks int
	// Log, when non-nil, receives a line per crash case and violation.
	Log io.Writer
}

func (cfg *TrafficConfig) fill() {
	if cfg.Points == 0 {
		cfg.Points = 6
	}
	if cfg.Perms == 0 {
		cfg.Perms = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ClientsPerTenant == 0 {
		cfg.ClientsPerTenant = 2
	}
	if cfg.Chunk == 0 {
		cfg.Chunk = 1024
	}
	if cfg.FsyncEvery == 0 {
		cfg.FsyncEvery = 4
	}
	if cfg.HorizonEvents == 0 {
		cfg.HorizonEvents = 600
	}
	if cfg.DeviceSize == 0 {
		cfg.DeviceSize = 24 << 20
	}
	if cfg.BufferBlocks == 0 {
		cfg.BufferBlocks = 512
	}
}

func (cfg *TrafficConfig) fsOpts() core.Options {
	return core.Options{
		BufferBlocks: cfg.BufferBlocks,
		PMFS:         pmfs.Options{JournalBlocks: 512, MaxInodes: 2048, FlightBlocks: flightRegionBlocks},
	}
}

// trafficTenants is the fixed tenant set: the 4:1 weight split the
// fairness figures use.
var trafficTenants = []struct {
	name   string
	weight int
}{
	{"gold", 4},
	{"bronze", 1},
}

// trafficOp is one wire request a client knows it issued, keyed by its
// predicted trace ID.
type trafficOp struct {
	tenant string
	path   string // server-side absolute path
	op     vfs.Op
	off    int64
	n      int
	floor  int64 // fsync: client-acked bytes at issue — the durable floor
	ok     bool  // the call returned success client-side
}

// trafficFile is one client's append target.
type trafficFile struct {
	tenant string
	path   string // server-side absolute path
	salt   uint64
	issued int64 // bytes attempted
	acked  int64 // bytes acknowledged contiguously from 0
	dirty  bool  // a failed/short write happened; boundary checks are off
}

// trafficRun is one completed crash run: the op log, the files, and the
// persist history recorded past the sampled crash event.
type trafficRun struct {
	ops     map[uint64]*trafficOp
	files   []*trafficFile
	history *nvmm.Recording
	target  int64
}

// pathSalt seeds the per-file byte pattern (FNV-1a of the path).
func pathSalt(path string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return h
}

// patByte is the deterministic content byte at offset off of a file with
// the given salt — what the clients write and the verifier expects.
func patByte(salt uint64, off int64) byte {
	x := salt + uint64(off)*0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return byte(x)
}

// trafficClient runs one client's append/fsync loop until stop. Every
// wire call increments the local op counter k, so its trace is base+k —
// the join key the verifier uses.
type trafficClient struct {
	cfg  *TrafficConfig
	cl   *server.Client
	base uint64
	file *trafficFile
	ops  []trafficOp // index i is trace base+i+1
}

func (tc *trafficClient) run(ready *sync.WaitGroup, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	relPath := tc.file.path[len("/tenants/"+tc.file.tenant):]
	f, err := tc.cl.Open(relPath, vfs.ORdwr|vfs.OCreate)
	tc.ops = append(tc.ops, trafficOp{tenant: tc.file.tenant, path: tc.file.path,
		op: vfs.OpOpen, ok: err == nil})
	ready.Done()
	if err != nil {
		return
	}
	buf := make([]byte, tc.cfg.Chunk)
	writes := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		off := tc.file.issued
		for i := range buf {
			buf[i] = patByte(tc.file.salt, off+int64(i))
		}
		tc.file.issued += int64(len(buf))
		n, werr := f.WriteAt(buf, off)
		tc.ops = append(tc.ops, trafficOp{tenant: tc.file.tenant, path: tc.file.path,
			op: vfs.OpWrite, off: off, n: n, ok: werr == nil && n == len(buf)})
		if werr != nil || n != len(buf) {
			tc.file.dirty = true
			return
		}
		tc.file.acked += int64(n)
		writes++
		if writes%tc.cfg.FsyncEvery == 0 {
			floor := tc.file.acked
			serr := f.Fsync()
			tc.ops = append(tc.ops, trafficOp{tenant: tc.file.tenant, path: tc.file.path,
				op: vfs.OpFsync, floor: floor, ok: serr == nil})
			if serr != nil {
				return
			}
		}
	}
}

// runTraffic executes one crash run: a fresh image, a live server, the
// client fleet, recorded from warm-up until the traffic passes a sampled
// crash event.
func (cfg *TrafficConfig) runTraffic(rng *workload.Rand) (*trafficRun, error) {
	dev, err := nvmm.New(nvmm.Config{Size: cfg.DeviceSize, TrackPersistence: true})
	if err != nil {
		return nil, err
	}
	fs, err := core.Mkfs(dev, cfg.fsOpts())
	if err != nil {
		return nil, err
	}
	defer fs.Abandon()
	tenants := make(map[string]server.TenantConfig, len(trafficTenants))
	for _, tn := range trafficTenants {
		tenants[tn.name] = server.TenantConfig{Root: "/tenants/" + tn.name, Weight: tn.weight}
	}
	srv, err := server.New(server.Config{
		FS:      fs,
		Tenants: tenants,
		Workers: 2,
		Flight:  fs.Flight(),
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	var clients []*trafficClient
	id := uint64(0)
	for _, tn := range trafficTenants {
		for i := 0; i < cfg.ClientsPerTenant; i++ {
			id++
			cpipe, spipe := net.Pipe()
			go srv.ServeConn(spipe)
			cl, err := server.NewClient(cpipe, tn.name)
			if err != nil {
				return nil, fmt.Errorf("crashtest: traffic attach: %w", err)
			}
			base := id << 32
			cl.SetTraceBase(base)
			path := fmt.Sprintf("/tenants/%s/c%d.log", tn.name, id)
			clients = append(clients, &trafficClient{
				cfg: cfg, cl: cl, base: base,
				file: &trafficFile{tenant: tn.name, path: path, salt: pathSalt(path)},
			})
		}
	}
	stop := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(len(clients))
	done.Add(len(clients))
	for _, tc := range clients {
		go tc.run(&ready, stop, &done)
	}
	ready.Wait()
	// Warm-up is over (every client attached and opened); record, and
	// sample the crash event from the traffic that follows. The client
	// loops keep the event counter moving, so it always gets there.
	history := dev.Record()
	target := dev.PersistEvents() + 1 + rng.Int63n(cfg.HorizonEvents)
	for deadline := time.Now().Add(30 * time.Second); dev.PersistEvents() < target && time.Now().Before(deadline); {
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	done.Wait()
	if dev.PersistEvents() < target {
		return nil, fmt.Errorf("crashtest: traffic never reached crash event %d (now %d)", target, dev.PersistEvents())
	}
	run := &trafficRun{ops: make(map[uint64]*trafficOp), history: history, target: target}
	for _, tc := range clients {
		tc.cl.Unmount()
		run.files = append(run.files, tc.file)
		for i := range tc.ops {
			run.ops[tc.base+uint64(i)+1] = &tc.ops[i]
		}
	}
	return run, nil
}

// TenantDamage attributes one tenant's share of the chaos: ops issued
// (per run), flight records that survived crashes (per case), acked
// appends whose bytes did not survive (per case — legitimate lazy-write
// loss, not violations) and bytes proven durable by surviving fsync
// records (per case).
type TenantDamage struct {
	OpsIssued   int64
	OpsRecorded int64
	WritesLost  int64
	SyncedBytes int64
}

// TrafficReport aggregates one chaos-under-traffic exploration.
type TrafficReport struct {
	tally
	// OpsIssued counts wire ops across all runs; RecordsDecoded /
	// RecordsJoined / TornRecords count the recovered ring's contents
	// across all cases — joined/decoded is the recorder-suffix accuracy.
	OpsIssued, RecordsDecoded, RecordsJoined, TornRecords int64
	Tenants                                               map[string]*TenantDamage
}

// Summary renders a one-paragraph result.
func (r *TrafficReport) Summary() string {
	joined := float64(100)
	if r.RecordsDecoded > 0 {
		joined = 100 * float64(r.RecordsJoined) / float64(r.RecordsDecoded)
	}
	s := fmt.Sprintf("traffic: %d crash runs × %d perms = %d cases, %d recovered, %d txs rolled back, %d ops issued, %d records decoded (%.1f%% joined, %d torn tails)",
		r.Points, r.Cases/max(r.Points, 1), r.Cases, r.Recovered, r.RolledBack, r.OpsIssued, r.RecordsDecoded, joined, r.TornRecords)
	for _, tn := range trafficTenants {
		if d := r.Tenants[tn.name]; d != nil {
			s += fmt.Sprintf("; %s: %d ops, %d recorded, %d writes lost, %d bytes fsync-proven",
				tn.name, d.OpsIssued, d.OpsRecorded, d.WritesLost, d.SyncedBytes)
		}
	}
	return s + r.verdict()
}

// ExploreTraffic runs the chaos-under-traffic loop: Points independent
// crash runs, each verified under Perms torn permutations. A non-nil
// error means the harness broke; consistency failures are in the report.
func ExploreTraffic(cfg TrafficConfig) (*TrafficReport, error) {
	cfg.fill()
	rep := &TrafficReport{Tenants: make(map[string]*TenantDamage)}
	for _, tn := range trafficTenants {
		rep.Tenants[tn.name] = &TenantDamage{}
	}
	rng := workload.NewRand(cfg.Seed*0xA24BAED4963EE407 + 3)
	for p := 0; p < cfg.Points; p++ {
		run, err := cfg.runTraffic(rng)
		if err != nil {
			return rep, err
		}
		rep.Points++
		rep.OpsIssued += int64(len(run.ops))
		for _, op := range run.ops {
			rep.Tenants[op.tenant].OpsIssued++
		}
		run.history.Walk(func(state *nvmm.CrashState) {
			if state.Event() != run.target {
				return
			}
			for _, seed := range permSeeds(cfg.Seed^(uint64(p)*0x9E3779B97F4A7C15+7), cfg.Perms) {
				rep.Cases++
				cfg.verifyTrafficCase(rep, run, state, seed)
			}
		})
	}
	return rep, nil
}

// verifyTrafficCase materializes one torn image from a traffic run,
// remounts it, and checks the flight-forensics invariants:
//
//	traffic-foreign   a surviving record's trace matches no issued op
//	traffic-tenant    a surviving record is attributed to the wrong tenant
//	traffic-op        a surviving record's op code disagrees with the op
//	traffic-synced-lost / traffic-synced-content
//	                  a surviving successful-fsync record's size floor or
//	                  pattern content is not met by the recovered file
//	traffic-torn-size a recovered append-only file's size is not a chunk
//	                  boundary (a lazy write leaked partially)
//	traffic-content   recovered bytes disagree with the written pattern
func (cfg *TrafficConfig) verifyTrafficCase(rep *TrafficReport, run *trafficRun, state *nvmm.CrashState, seed uint64) {
	pt := state.Event()
	before := len(rep.Violations) + rep.Suppressed
	fs, dev, rolled := rep.remount(state, seed, cfg.fsOpts(), cfg.Log)
	if fs == nil {
		return
	}
	defer fs.Abandon()
	off, size := fs.FlightRegion()
	if size == 0 {
		rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-region",
			Detail: "recovered image has no flight region"}, cfg.Log)
		return
	}
	log, err := flight.Decode(dev, off, size)
	if err != nil {
		rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-decode", Detail: err.Error()}, cfg.Log)
		return
	}
	rep.RecordsDecoded += int64(len(log.Records))
	rep.TornRecords += int64(log.Torn)
	sizes := cfg.recoveredSizes(rep, run, fs, pt, seed)
	for i := range log.Records {
		d := &log.Records[i]
		op, ok := run.ops[d.Trace]
		if !ok {
			rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-foreign",
				Detail: fmt.Sprintf("record seq %d trace %#x matches no issued op", d.Seq, d.Trace)}, cfg.Log)
			continue
		}
		rep.RecordsJoined++
		rep.Tenants[op.tenant].OpsRecorded++
		if d.Tenant != op.tenant {
			rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-tenant", Path: op.path,
				Detail: fmt.Sprintf("record seq %d attributed to %q, op was %s's", d.Seq, d.Tenant, op.tenant)}, cfg.Log)
		}
		if d.Op != op.op {
			rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-op", Path: op.path,
				Detail: fmt.Sprintf("record seq %d decodes as %s, op was %s", d.Seq, d.Op, op.op)}, cfg.Log)
		}
		// A surviving successful-fsync record proves durability: the
		// fsync's flushes and fences are strictly earlier persist events
		// than the record's own WriteNT, so the floor must be met.
		if d.Op == vfs.OpFsync && d.Result == 0 && op.ok {
			sz, exists := sizes[op.path]
			if !exists {
				rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-synced-lost", Path: op.path,
					Detail: fmt.Sprintf("fsync record seq %d survived but the file is gone (floor %d bytes)", d.Seq, op.floor)}, cfg.Log)
			} else if sz < op.floor {
				rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-synced-lost", Path: op.path,
					Detail: fmt.Sprintf("fsync record seq %d survived but size %d is below the synced floor %d", d.Seq, sz, op.floor)}, cfg.Log)
			} else {
				rep.Tenants[op.tenant].SyncedBytes += op.floor
			}
		}
	}
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "traffic point %d seed %#016x: rolled back %d, %d records, %d violations\n",
			pt, seed, rolled, len(log.Records), len(rep.Violations)+rep.Suppressed-before)
	}
}

// recoveredSizes checks every client file's recovered state (size
// boundary, pattern content), counts per-tenant lost appends, and
// returns path -> recovered size for the fsync-floor checks.
func (cfg *TrafficConfig) recoveredSizes(rep *TrafficReport, run *trafficRun, fs *core.FS, pt int64, seed uint64) map[string]int64 {
	sizes := make(map[string]int64, len(run.files))
	for _, f := range run.files {
		fi, err := fs.Stat(f.path)
		if err != nil {
			// Never durable — the create itself was lost. Legitimate (the
			// fsync-floor check catches the illegitimate variant); every
			// acked append on it is damage.
			rep.Tenants[f.tenant].WritesLost += f.acked / int64(cfg.Chunk)
			continue
		}
		sizes[f.path] = fi.Size
		if f.acked > fi.Size {
			rep.Tenants[f.tenant].WritesLost += (f.acked - fi.Size) / int64(cfg.Chunk)
		}
		if !f.dirty {
			if fi.Size%int64(cfg.Chunk) != 0 {
				rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-torn-size", Path: f.path,
					Detail: fmt.Sprintf("recovered size %d is not a %d-byte append boundary", fi.Size, cfg.Chunk)}, cfg.Log)
			}
			if fi.Size > f.issued {
				rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-torn-size", Path: f.path,
					Detail: fmt.Sprintf("recovered size %d exceeds the %d bytes ever issued", fi.Size, f.issued)}, cfg.Log)
			}
		}
		if fi.Size > 0 {
			cfg.checkPattern(rep, fs, f, fi.Size, pt, seed)
		}
	}
	return sizes
}

// checkPattern verifies every recovered byte of f matches the
// deterministic write pattern.
func (cfg *TrafficConfig) checkPattern(rep *TrafficReport, fs *core.FS, f *trafficFile, size, pt int64, seed uint64) {
	h, err := fs.Open(f.path, vfs.ORdonly)
	if err != nil {
		rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-content", Path: f.path,
			Detail: "stat succeeded but open failed: " + err.Error()}, cfg.Log)
		return
	}
	defer h.Close()
	buf := make([]byte, 64<<10)
	for at := int64(0); at < size; {
		n := int64(len(buf))
		if rem := size - at; rem < n {
			n = rem
		}
		if _, err := h.ReadAt(buf[:n], at); err != nil {
			rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-content", Path: f.path,
				Detail: fmt.Sprintf("read at %d: %v", at, err)}, cfg.Log)
			return
		}
		for i := int64(0); i < n; i++ {
			if buf[i] != patByte(f.salt, at+i) {
				rep.add(Violation{Event: pt, Seed: seed, Invariant: "traffic-content", Path: f.path,
					Detail: fmt.Sprintf("byte %d is %#02x, pattern says %#02x", at+i, buf[i], patByte(f.salt, at+i))}, cfg.Log)
				return
			}
		}
		at += n
	}
}
