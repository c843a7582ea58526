// stack.go is the benchmark's only adapter onto the HiNFS code base: every
// import of hinfs/... lives in this file. It builds the stack under test
// from the layer constructors, snapshots each layer's public Stats(), and
// drives each layer's public functions in isolation. Workloads, the
// generator, spans and reporting see only the names declared here, so an
// API change in the stack costs a fix in this one file.
package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"hinfs"
	"hinfs/internal/benefit"
	"hinfs/internal/buffer"
	"hinfs/internal/clock"
	"hinfs/internal/obs"
	"hinfs/internal/obs/flight"
	"hinfs/internal/server"
)

// The file-system surface every workload programs against.
type (
	FileSystem = hinfs.FileSystem
	File       = hinfs.File
	FileInfo   = hinfs.FileInfo
	DirEntry   = hinfs.DirEntry
)

const oRdwr = hinfs.ORdwr

// The Table-2 stack: the paper's device model at real-time scale and the
// harness's DRAM buffer ratio, every other knob at its default.
const (
	deviceSize    = 512 << 20
	crashDevSize  = 64 << 20 // crash leg: Crash() copies the whole image
	driveDevSize  = 64 << 20
	bufferBlocks  = 4864 // 19 MiB
	flightBlocks  = 32
	serverWorkers = 2
)

// tenantNames are the served stack's tenants, weight 1:1, one connection
// each; tenant t is rooted at /t on the backing file system.
var tenantNames = []string{"a", "b"}

type devMode int

const (
	devTable2 devMode = iota // 200 ns/line, 1 GiB/s
	devZero                  // zero write latency: what remains is software time
	devCrash                 // Table-2 timing with persistence tracking
)

func deviceConfig(mode devMode) hinfs.DeviceConfig {
	cfg := hinfs.DeviceConfig{
		Size:           deviceSize,
		WriteLatency:   200 * time.Nanosecond,
		WriteBandwidth: 1 << 30,
		TimeScale:      1,
	}
	switch mode {
	case devZero:
		cfg.Size, cfg.WriteLatency = driveDevSize, 0
	case devCrash:
		cfg.Size, cfg.TrackPersistence = crashDevSize, true
	}
	return cfg
}

func describeDevice() string {
	c := deviceConfig(devTable2)
	return fmt.Sprintf("size=%dMiB write=%v/line read=%v bw=%dMiB/s scale=%g buffer=%d blocks flight=%d blocks workers=%d",
		c.Size>>20, c.WriteLatency, c.ReadLatency, c.WriteBandwidth>>20, c.TimeScale, bufferBlocks, flightBlocks, serverWorkers)
}

func fsOptions(col *obs.Collector) hinfs.Options {
	o := hinfs.Options{BufferBlocks: bufferBlocks, Obs: col}
	o.PMFS.FlightBlocks = flightBlocks
	return o
}

// stack is one instance of the system under test.
type stack struct {
	dev  *hinfs.Device
	fs   *hinfs.FS
	col  *obs.Collector // traced stacks only
	ring *spanRing      // traced stacks only

	srv      *server.Server
	serveErr chan error
	clients  []*server.Client
}

// newStack formats a fresh device. A non-nil ring makes the stack a traced
// one: an obs.Collector is attached through core.Options.Obs and the
// obs.WrapFS decorator is composed above core.FS with a span interposer on
// each side of it (see below).
func newStack(mode devMode, ring *spanRing) (*stack, error) {
	dev, err := hinfs.NewDevice(deviceConfig(mode))
	if err != nil {
		return nil, err
	}
	s := &stack{dev: dev, ring: ring}
	if ring != nil {
		s.col = obs.New()
	}
	if s.fs, err = hinfs.Mkfs(dev, fsOptions(s.col)); err != nil {
		return nil, err
	}
	return s, nil
}

// below is what sits under a caller of the library (a local workload, or
// the server): core.FS itself, or on a traced stack
// span(vfs) -> obs.WrapFS -> span(core) -> core.FS.
func (s *stack) below() FileSystem {
	if s.ring == nil {
		return s.fs
	}
	return &spanFS{inner: obs.WrapFS(&spanFS{inner: s.fs, layer: layerCore, ring: s.ring}, s.col), layer: layerVFS, ring: s.ring}
}

// wireTrace is the trace ID of the server request executing on the calling
// goroutine (0 outside a server worker): how a span recorded under the
// server joins the client span that caused it.
func wireTrace() uint64 { return obs.CurrentTrace() }

// serve starts the multi-tenant server over below on a TCP loopback and
// dials one connection per tenant.
func (s *stack) serve(below FileSystem) error {
	tenants := make(map[string]server.TenantConfig, len(tenantNames))
	for _, t := range tenantNames {
		tenants[t] = server.TenantConfig{Root: "/" + t, Weight: 1}
	}
	dev := s.dev
	srv, err := server.New(server.Config{
		FS:          below,
		Tenants:     tenants,
		Workers:     serverWorkers,
		Flight:      s.fs.Flight(),
		BatchFences: func() server.PersistScope { return dev.EnterFenceScope() },
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv, s.serveErr = srv, make(chan error, 1)
	go func() { s.serveErr <- srv.Serve(ln) }()
	for _, t := range tenantNames {
		c, err := server.Dial(ln.Addr().String(), t)
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

// client returns tenant i's connection as a file system.
func (s *stack) client(i int) FileSystem { return s.clients[i] }

// setWireTrace makes conn i stamp its next request with id, the one after
// with id+1, and so on.
func (s *stack) setWireTrace(i int, id uint64) { s.clients[i].SetTraceBase(id - 1) }

// stopServing closes the connections and the server; the file system stays
// mounted.
func (s *stack) stopServing() error {
	if s.srv == nil {
		return nil
	}
	var first error
	for _, c := range s.clients {
		if err := c.Unmount(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.srv.Close(); err != nil && first == nil {
		first = err
	}
	if err := <-s.serveErr; err != nil && first == nil {
		first = err
	}
	s.srv, s.clients = nil, nil
	return first
}

// drain flushes the DRAM buffer and unmounts, returning how long that took.
func (s *stack) drain() (time.Duration, error) {
	t0 := time.Now()
	if err := s.fs.Sync(); err != nil {
		return 0, err
	}
	if err := s.fs.Unmount(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// abandon stops a stack that is no longer needed without draining it.
func (s *stack) abandon() {
	_ = s.stopServing() // teardown of a discarded stack: nothing to report to
	s.fs.Abandon()
}

// crash drops everything not yet persisted, as a power failure would.
func (s *stack) crash() {
	s.fs.Abandon()
	s.dev.Crash()
}

// remount runs MountRecover (journal recovery plus allocator rebuild) on
// the device image and checks it, returning the mount time and the number
// of fsck findings.
func (s *stack) remount() (time.Duration, int, error) {
	t0 := time.Now()
	fs, _, err := hinfs.MountRecover(s.dev, fsOptions(nil))
	if err != nil {
		return 0, 0, err
	}
	d := time.Since(t0)
	s.fs = fs
	return d, len(fs.Fsck()), nil
}

// counters is every cumulative count the layers publish, flattened; two
// snapshots subtract field by field.
type counters struct {
	Flushes, Fences, FencesElided, BytesFlushed, BytesRead, WriteTimeNS int64 // nvmm

	JEntries, JCommits, JCheckpoints, JStalls, JLaneContended int64 // journal

	AllocWords, AllocSteals, DirContended int64 // pmfs

	WriteHits, WriteMisses, LinesFetched, LinesFlushed, Evictions int64 // buffer
	Stalls, StallNS, WBBatches, WBBlocks, Drops                   int64

	BenefitAccurate, BenefitDecisions int64 // benefit

	SrvOps, SrvMeasuredNS, SrvServiceNS, SrvQueueNS, SrvQuotaNS int64 // server, summed over tenants
	SrvLockNS, SrvStallNS, SrvFlushNS, SrvEstErrNS, SrvRejects  int64

	FlightSeq int64 // flight

	EagerBlocks, LazyBlocks, CopyWriteBytes int64 // obs.Collector (traced stacks)
}

func (s *stack) counters() counters {
	var c counters
	d := s.dev.Stats()
	c.Flushes, c.Fences, c.FencesElided = d.Flushes, d.Fences, d.FencesElided
	c.BytesFlushed, c.BytesRead, c.WriteTimeNS = d.BytesFlushed, d.BytesRead, int64(d.WriteTime)

	j := s.fs.Journal().Stats()
	c.JEntries, c.JCommits, c.JCheckpoints, c.JStalls, c.JLaneContended =
		j.EntriesLogged, j.Commits, j.Checkpoints, j.Stalls, j.LaneContended

	a := s.fs.AllocStats()
	c.AllocWords, c.AllocSteals, c.DirContended = a.WordsScanned, a.Steals, s.fs.DirLockContended()

	b := s.fs.Pool().Stats()
	c.WriteHits, c.WriteMisses, c.LinesFetched, c.LinesFlushed, c.Evictions =
		b.WriteHits, b.WriteMisses, b.LinesFetched, b.LinesFlushed, b.Evictions
	c.Stalls, c.StallNS, c.WBBatches, c.WBBlocks, c.Drops =
		b.Stalls, b.StallNanos, b.WritebackBatches, b.WritebackBlocks, b.Drops

	c.BenefitAccurate, c.BenefitDecisions = s.fs.Model().Accuracy()

	if s.srv != nil {
		for _, t := range s.srv.Stats() {
			c.SrvOps += t.Ops
			c.SrvMeasuredNS += t.MeasuredNS()
			c.SrvServiceNS += t.StageNS[obs.StageService.String()]
			c.SrvQueueNS += t.StageNS[obs.StageQueue.String()]
			c.SrvQuotaNS += t.StageNS[obs.StageQuota.String()]
			c.SrvLockNS += t.StageNS[obs.StageLock.String()]
			c.SrvStallNS += t.StageNS[obs.StageStall.String()]
			c.SrvFlushNS += t.StageNS[obs.StageFlush.String()]
			c.SrvEstErrNS += t.Sched.EstErrNS
			c.SrvRejects += t.QuotaRejects
		}
	}
	c.FlightSeq = int64(s.fs.Flight().Seq())

	if s.col != nil {
		c.EagerBlocks = s.col.Counter(obs.CtrEagerBlocks)
		c.LazyBlocks = s.col.Counter(obs.CtrLazyBlocks)
		for _, k := range []obs.CopyKind{obs.CopyUserIn, obs.CopyWriteFetch, obs.CopyInlineEvict, obs.CopySyncFlush, obs.CopyWriteback} {
			c.CopyWriteBytes += s.col.CopyBytes(k)
		}
	}
	return c
}

// ghostLen is the benefit model's ghost-buffer occupancy (a gauge).
func (s *stack) ghostLen() int { return s.fs.Model().GhostLen() }

// resetPaths zeroes the collector's decision-path histograms so that
// pathP50us reads the traced window alone.
func (s *stack) resetPaths() {
	for _, p := range obs.Paths() {
		s.col.PathHist(p).Reset()
	}
}

// pathP50us returns the collector's median latency per decision path in
// microseconds, interpolated inside the histogram bucket.
func (s *stack) pathP50us() (lazyWrite, eagerWrite, directRead, bufferedRead, nvmmFlush float64) {
	p50 := func(p obs.Path) float64 {
		h := s.col.PathHist(p).Snapshot()
		rank, cum := float64(h.Count)/2, 0.0
		for _, b := range h.Buckets {
			n := float64(b.Count)
			if cum+n >= rank {
				return (float64(b.Low) + float64(b.High-b.Low)*(rank-cum)/n) / 1e3
			}
			cum += n
		}
		return 0
	}
	return p50(obs.PathLazyWrite), p50(obs.PathEagerWrite), p50(obs.PathDirectRead),
		p50(obs.PathBufferedRead), p50(obs.PathNVMMFlush)
}

// batch is the pipelined submission path of one connection.
type batch struct{ b *server.Batch }

const batchWindow = 32

func (s *stack) newBatch(i int) *batch {
	b := s.clients[i].NewBatch()
	b.SetWindow(batchWindow)
	return &batch{b}
}

// remote strips the benchmark's own decoration: a Batch accepts only the
// client's handles.
func remote(f File) File {
	if sf, ok := f.(*spanFile); ok {
		return sf.inner
	}
	return f
}

func (b *batch) readAt(f File, p []byte, off int64)  { b.b.ReadAt(remote(f), p, off) }
func (b *batch) writeAt(f File, p []byte, off int64) { b.b.WriteAt(remote(f), p, off) }
func (b *batch) fsync(f File)                        { b.b.Fsync(remote(f)) }
func (b *batch) reset()                              { b.b.Reset() }
func (b *batch) depth() float64                      { return b.b.AchievedDepth() }

// wait submits the queued ops and blocks for every reply. want[i] is the
// byte count op i must report (0 for an fsync); it returns how many ops
// failed or came back short.
func (b *batch) wait(want []int) (failed int, err error) {
	if err := b.b.Wait(); err != nil {
		return len(want), err
	}
	for i, o := range b.b.Ops() {
		if o.Err != nil || o.N != want[i] {
			failed++
		}
	}
	return failed, nil
}

// --- drives: each layer's public functions called in isolation on a
// zero-latency device, so what is timed is software alone ---

// drive times n calls of fn and reports nanoseconds and heap allocations
// per call.
func drive(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

const blockSize = 4096

// drives runs every isolated drive and returns the drive metrics by name.
// A drive that fails returns the error: the numbers would be meaningless.
func drives() (map[string]float64, error) {
	m := make(map[string]float64)
	blk := make([]byte, blockSize)
	for i := range blk {
		blk[i] = byte(i)
	}
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	wrote := func(n int, err error) {
		if err == nil && n != blockSize {
			err = errors.New("drive: short transfer")
		}
		check(err)
	}

	// nvmm: a raw device.
	dev, err := hinfs.NewDevice(deviceConfig(devZero))
	if err != nil {
		return nil, err
	}
	ns, _ := drive(20000, func(i int) {
		off := int64(i%1024) * blockSize
		dev.Write(blk, off)
		dev.Flush(off, blockSize)
	})
	m["nvmm.persist_sw_ns_per_line"] = ns / (blockSize / 64)
	m["nvmm.fence_sw_ns"], _ = drive(200000, func(int) { dev.Fence() })

	// buffer: a pool over the raw device.
	pool := buffer.NewPool(dev, clock.Real{}, buffer.Config{Blocks: 2048, CLFW: true})
	addr := func(i int) int64 { return int64(i) * blockSize }
	fb := pool.NewFile()
	for i := 0; i < 256; i++ {
		fb.Write(int64(i), 0, blk, addr(i), true)
	}
	m["buffer.write_hit_sw_ns"], _ = drive(50000, func(i int) { fb.Write(int64(i%256), 0, blk, addr(i%256), true) })
	fb.Drop()
	var miss, flush time.Duration
	const rounds, perRound = 8, 1024
	for r := 0; r < rounds; r++ {
		fb = pool.NewFile()
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			fb.Write(int64(i), 0, blk, addr(i), false)
		}
		t1 := time.Now()
		_, err := fb.Flush()
		flush += time.Since(t1)
		miss += t1.Sub(t0)
		check(err)
		fb.Drop()
	}
	m["buffer.write_miss_sw_ns"] = float64(miss.Nanoseconds()) / (rounds * perRound)
	m["buffer.flush_sw_ns_per_block"] = float64(flush.Nanoseconds()) / (rounds * perRound)
	fb = pool.NewFile()
	for i := 0; i < 256; i++ { // lines 16..31 valid in DRAM, the rest on NVMM
		fb.Write(int64(i), 1024, blk[:1024], addr(i), true)
	}
	dst := make([]byte, blockSize)
	m["buffer.read_merge_sw_ns"], _ = drive(50000, func(i int) {
		if !fb.ReadMerge(int64(i%256), 0, dst, addr(i%256)) {
			check(errors.New("drive: read-merge missed a buffered block"))
		}
	})
	fb.Drop()
	pool.Close()

	// benefit: a model of its own, sized like the stack's ghost buffer.
	model := benefit.NewModel(clock.Real{}, benefit.Config{GhostBlocks: bufferBlocks})
	now := time.Now()
	m["benefit.classify_sw_ns"], _ = drive(200000, func(i int) {
		model.RecordWrite(1, int64(i%4096), 0xffff)
		model.IsEager(1, int64(i%4096), now)
	})
	m["benefit.onsync_sw_ns"], _ = drive(2000, func(int) {
		for b := int64(0); b < 16; b++ {
			model.RecordWrite(2, b, 0xffff)
		}
		model.OnSync(2)
	})

	// pmfs: the substrate alone (what the direct path pays).
	pdev, err := hinfs.NewDevice(deviceConfig(devZero))
	if err != nil {
		return nil, err
	}
	pfs, err := hinfs.NewPMFS(pdev, hinfs.PMFSOptions{})
	if err != nil {
		return nil, err
	}
	fsDrives := func(prefix string, fs FileSystem) {
		f, err := fs.Create("/drive")
		if err != nil {
			check(err)
			return
		}
		for i := 0; i < 256; i++ {
			wrote(f.WriteAt(blk, int64(i)*blockSize))
		}
		check(f.Fsync())
		m[prefix+".read4k_sw_ns"], _ = drive(50000, func(i int) { wrote(f.ReadAt(dst, int64(i%256)*blockSize)) })
		m[prefix+".create_unlink_sw_ns"], _ = drive(5000, func(int) {
			t, err := fs.Create("/t")
			if err == nil {
				err = t.Close()
			}
			if err == nil {
				err = fs.Unlink("/t")
			}
			check(err)
		})
		check(f.Close())
	}
	fsDrives("pmfs", pfs)
	pf, err := pfs.Open("/drive", oRdwr)
	if err != nil {
		return nil, err
	}
	m["pmfs.write4k_sw_ns"], m["pmfs.write4k_allocs"] = drive(20000, func(i int) { wrote(pf.WriteAt(blk, int64(i%256)*blockSize)) })
	check(pf.Close())
	check(pfs.Unmount())

	// core, journal, flight and server: the whole stack on a zero-latency
	// device.
	s, err := newStack(devZero, nil)
	if err != nil {
		return nil, err
	}
	fsDrives("core", s.fs)
	cf, err := s.fs.Open("/drive", oRdwr)
	if err != nil {
		return nil, err
	}
	m["core.write4k_lazy_sw_ns"], m["core.write4k_allocs"] = drive(50000, func(i int) { wrote(cf.WriteAt(blk, int64(i%64)*blockSize)) })
	m["core.write4k_fsync_sw_ns"], _ = drive(10000, func(i int) {
		wrote(cf.WriteAt(blk, int64(i%64)*blockSize))
		check(cf.Fsync())
	})
	check(cf.Close())

	jnl, scratch := s.fs.Journal(), s.dev.Size()-2*blockSize // a block no file owns
	m["journal.tx_sw_ns"], m["journal.tx_allocs"] = drive(20000, func(int) {
		tx := jnl.Begin()
		tx.LogRange(scratch, 40)
		tx.LogRange(scratch+64, 40)
		tx.Commit()
	})

	rec := s.fs.Flight()
	m["flight.record_sw_ns"], _ = drive(200000, func(i int) {
		rec.Record(&flight.Record{Trace: uint64(i), Ino: 2, Off: int64(i), Len: 64, Op: flight.OpWrite, Tenant: "a"})
	})

	if err := s.serve(s.fs); err != nil {
		return nil, err
	}
	c := s.clients[0]
	m["server.rtt_sw_ns"], m["server.rtt_allocs"] = drive(5000, func(int) {
		_, err := c.Stat("/")
		check(err)
	})
	rf, err := c.Create("/batch")
	if err != nil {
		return nil, err
	}
	b := s.newBatch(0)
	want := make([]int, batchWindow)
	for i := range want {
		want[i] = 256
	}
	ns, _ = drive(300, func(int) {
		for k := 0; k < batchWindow; k++ {
			b.writeAt(rf, blk[:256], int64(k)*blockSize)
		}
		failed, err := b.wait(want)
		if err == nil && failed > 0 {
			err = errors.New("drive: batched write failed")
		}
		check(err)
		b.reset()
	})
	m["server.batch32_sw_ns_per_op"] = ns / batchWindow
	check(rf.Close())
	check(s.stopServing())
	_, err = s.drain()
	check(err)
	return m, firstErr
}
