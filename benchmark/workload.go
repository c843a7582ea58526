package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one closed-loop op stream and the stack it runs on. A
// workload with sizes set preallocates that fileset per client and keeps
// every file open; meta-churn instead creates and deletes files as it goes.
type workload struct {
	name, why string
	served    bool // over the TCP loopback server, one connection per tenant
	batch     bool // piped ops go through the pipelined Batch
	churn     bool // dynamic namespace (meta-churn)
	crashLeg  bool // replay a prefix on a tracked device and crash it
	sizes     []int64
	step      func() func(*generator)
}

func repeat(n int, size int64, more ...int64) []int64 {
	s := make([]int64, n, n+len(more))
	for i := range s {
		s[i] = size
	}
	return append(s, more...)
}

func stateless(step func(*generator)) func() func(*generator) {
	return func() func(*generator) { return step }
}

var workloads = []*workload{
	{
		name:  "lazy-rw",
		why:   "Lazy writes and reads over 64 MiB, 3.4x the DRAM buffer: buffer hits, eviction, stalls and cacheline-granular background write-back do most of the work; a small log fsync and a stat ride beside them.",
		sizes: repeat(lazyFiles, lazyFileSize, lazyLogSize),
		step:  stateless(lazyStep),
	},
	{
		name: "sync-small", crashLeg: true,
		why:   "Small writes, 81 % fsynced at once, on 16 MiB that fits the buffer: the benefit model must route eager, so journal commits and nvmm flush and fence counts set the price and the buffer idles.",
		sizes: repeat(syncFiles, syncFileSize),
		step:  func() func(*generator) { return syncStep(new(int)) },
	},
	{
		name: "meta-churn", churn: true, crashLeg: true,
		why:  "Create, write, fsync, stat, open, read, rename and unlink of short-lived files in 32 directories: pmfs lookup, allocation and journal entries do most of the work; the buffer shows up as drops.",
		step: func() func(*generator) { return churnStep(&churnState{size: make(map[int]int)}) },
	},
	{
		name: "served-sync", served: true,
		why:   "Two tenants over TCP loopback issue small reads, writes, fsyncs and stats as synchronous RPCs: turnaround, framing, scheduler, tenant accounting and flight append outweigh the file system.",
		sizes: repeat(servedFiles, servedFileSize),
		step:  stateless(servedStep),
	},
	{
		name: "served-batch", served: true, batch: true,
		why:   "The served-sync stream with each 33-op burst pipelined through server.Batch: dispatch batches and fence coalescing carry it, so a turnaround gain that costs pipelined throughput shows.",
		sizes: repeat(servedFiles, servedFileSize),
		step:  stateless(servedStep),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) clients() int {
	if w.served {
		return len(tenantNames)
	}
	return 1
}

func (w *workload) generator(seed uint64, client int) *generator {
	return &generator{r: rng{seed*0x9e3779b97f4a7c15 + uint64(client)}, step: w.step()}
}

// fileRef is a churn file's content: a slice of the payload pool.
type fileRef struct{ pay, n int }

const (
	phaseWarm int32 = iota
	phaseRecord
	phaseStop
)

const verifyEvery = 8 // every 8th read is compared with the shadow copy in-window

// client is one closed-loop caller: it draws an op, issues it, waits for
// the reply, checks it, and only then draws the next.
type client struct {
	w    *workload
	id   int
	fs   FileSystem // what the workload calls: core.FS, a connection, or either under a span interposer
	root string     // where this client's files live on the backing file system
	gen  *generator
	pool []byte

	paths  []string
	files  []File
	shadow [][]byte
	open   map[int]File    // churn: handles between create/open and close
	live   map[int]fileRef // churn: shadow of the namespace
	clean  map[int]bool    // crash leg: file's last change was a completed fsync

	bat   *batch
	spans *spanFS // traced runs: the client-layer interposer, told of bursts
	rbuf  [burstData + 1][]byte
	want  []int
	burst []op

	phase *atomic.Int32

	// Window measurements.
	lat       [numClasses][]uint32
	bursts    []uint32
	ops       int64
	busyNS    int64
	userBytes int64
	attempted int64
	failed    int64
	dropped   int64 // samples beyond the preallocated arrays
	reads     int
	firstErr  error
}

func churnPath(root string, id int) string {
	return fmt.Sprintf("%s/d%02d/f%07d", root, id%churnDirs, id)
}

// filePath is preallocated file i's path under a client's root.
func filePath(i int) string { return fmt.Sprintf("/f%02d", i) }

func initialContent(pool []byte, client, file int, size int64) []byte {
	start := (client*67 + file) * 16 * kib % (poolSize - int(size) + 1)
	return pool[start : start+int(size)]
}

// populate creates the workload's files directly on fs, as set-up does.
func populate(fs FileSystem, w *workload, pool []byte) error {
	for k := 0; k < w.clients(); k++ {
		root := ""
		if w.served {
			root = "/" + tenantNames[k]
			if err := fs.Mkdir(root); err != nil {
				return err
			}
		}
		for d := 0; w.churn && d < churnDirs; d++ {
			if err := fs.Mkdir(fmt.Sprintf("%s/d%02d", root, d)); err != nil {
				return err
			}
		}
		for i, size := range w.sizes {
			f, err := fs.Create(root + filePath(i))
			if err != nil {
				return err
			}
			if n, err := f.WriteAt(initialContent(pool, k, i, size), 0); err != nil || int64(n) != size {
				return fmt.Errorf("populate: wrote %d of %d: %v", n, size, err)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return fs.Sync()
}

// instance is a stack with a workload's fileset and clients on it.
type instance struct {
	s       *stack
	clients []*client
	setup   time.Duration
}

// setUp builds the stack, the fileset and the clients: everything a run
// pays before its first op. This is what setup_s times.
func setUp(w *workload, seed uint64, mode devMode, ring *spanRing, window time.Duration) (*instance, error) {
	t0 := time.Now()
	pool := newPool(seed)
	s, err := newStack(mode, ring)
	if err != nil {
		return nil, err
	}
	if err := populate(s.fs, w, pool); err != nil {
		return nil, err
	}
	below := s.below()
	if w.served {
		if err := s.serve(below); err != nil {
			return nil, err
		}
	}
	in := &instance{s: s}
	phase := new(atomic.Int32)
	for k := 0; k < w.clients(); k++ {
		c := &client{w: w, id: k, fs: below, gen: w.generator(seed, k), pool: pool, phase: phase}
		if w.served {
			c.fs, c.root = s.client(k), "/"+tenantNames[k]
		}
		if ring != nil {
			sf := &spanFS{inner: c.fs, layer: layerClient, ring: ring, conn: k}
			if w.served {
				k := k
				sf.announce = func(id uint64) { s.setWireTrace(k, id) }
			}
			c.fs, c.spans = sf, sf
		}
		if w.batch {
			c.bat = s.newBatch(k)
		}
		if err := c.prepare(window); err != nil {
			return nil, err
		}
		in.clients = append(in.clients, c)
	}
	in.setup = time.Since(t0)
	return in, nil
}

// prepare opens the client's files, copies their contents into the shadow
// and sizes the sample arrays for a window.
func (c *client) prepare(window time.Duration) error {
	c.open, c.live, c.clean = make(map[int]File), make(map[int]fileRef), make(map[int]bool)
	for i, size := range c.w.sizes {
		f, err := c.fs.Open(filePath(i), oRdwr)
		if err != nil {
			return err
		}
		c.paths = append(c.paths, filePath(i))
		c.files = append(c.files, f)
		c.shadow = append(c.shadow, append([]byte(nil), initialContent(c.pool, c.id, i, size)...))
		c.clean[i] = true // set-up synced it
	}
	for i := range c.rbuf {
		c.rbuf[i] = make([]byte, maxIO)
	}
	// Room for a million ops a second; untouched pages cost nothing.
	room := int(window.Seconds()*1e6) + 1024
	for cl := range c.lat {
		c.lat[cl] = make([]uint32, 0, room)
	}
	c.bursts = make([]uint32, 0, room/8)
	return nil
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

var errShort = errors.New("short transfer")

// call issues one synchronous op and checks its reply.
func (c *client) call(o op, path, path2 string) error {
	switch o.kind {
	case opRead:
		n, err := c.handle(o.file).ReadAt(c.rbuf[0][:o.n], o.off)
		if err == nil && n != o.n {
			err = errShort
		}
		return err
	case opWrite:
		n, err := c.handle(o.file).WriteAt(c.pool[o.pay:o.pay+o.n], o.off)
		if err == nil && n != o.n {
			err = errShort
		}
		return err
	case opFsync:
		return c.handle(o.file).Fsync()
	case opStat:
		_, err := c.fs.Stat(path)
		return err
	case opCreate:
		f, err := c.fs.Create(path)
		if err == nil {
			c.open[o.file] = f
		}
		return err
	case opOpen:
		f, err := c.fs.Open(path, oRdwr)
		if err == nil {
			c.open[o.file] = f
		}
		return err
	case opClose:
		f := c.open[o.file]
		delete(c.open, o.file)
		return f.Close()
	case opRename:
		return c.fs.Rename(path, path2)
	case opUnlink:
		return c.fs.Unlink(path)
	}
	return errors.New("unknown op")
}

func (c *client) handle(file int) File {
	if c.w.churn {
		return c.open[file]
	}
	return c.files[file]
}

func (c *client) path(file int) string {
	if c.w.churn {
		return churnPath("", file)
	}
	return c.paths[file]
}

// expect returns what the file system must hold at o's range.
func (c *client) expect(o op) []byte {
	if c.w.churn {
		ref := c.live[o.file]
		return c.pool[ref.pay : ref.pay+ref.n]
	}
	return c.shadow[o.file][o.off : o.off+int64(o.n)]
}

// settle folds a completed op into the shadow copy and, for a sampled
// read, compares what came back.
func (c *client) settle(o op, got []byte) {
	switch o.kind {
	case opRead:
		if c.reads++; c.reads%verifyEvery == 0 && !bytes.Equal(got, c.expect(o)) {
			c.fail(fmt.Errorf("%s: read of file %d at %d+%d differs from the shadow copy", c.w.name, o.file, o.off, o.n))
		}
	case opWrite:
		if c.w.churn {
			c.live[o.file] = fileRef{o.pay, o.n}
		} else {
			copy(c.shadow[o.file][o.off:], c.pool[o.pay:o.pay+o.n])
		}
		c.clean[o.file] = false
	case opFsync:
		c.clean[o.file] = true
	case opRename:
		c.live[o.file2], c.clean[o.file2] = c.live[o.file], c.clean[o.file]
		delete(c.live, o.file)
		delete(c.clean, o.file)
	case opUnlink:
		delete(c.live, o.file)
		delete(c.clean, o.file)
	}
}

func (c *client) sample(cl class, d time.Duration) {
	if len(c.lat[cl]) == cap(c.lat[cl]) {
		c.dropped++
		return
	}
	c.lat[cl] = append(c.lat[cl], uint32(min(d, 1<<32-1)))
}

// run is the closed loop. It draws and issues ops until the phase says
// stop, recording only what completes while the phase says record.
func (c *client) run(limit int) {
	var groupStart time.Time
	groupN := 0
	for i := 0; limit == 0 || i < limit; i++ {
		if c.phase.Load() == phaseStop {
			return
		}
		o := c.gen.next()
		if o.piped && c.bat != nil {
			c.pipeline(o)
			continue
		}
		var path, path2 string
		switch o.kind {
		case opStat, opCreate, opOpen, opUnlink:
			path = c.path(o.file)
		case opRename:
			path, path2 = c.path(o.file), c.path(o.file2)
		}
		t0 := time.Now()
		err := c.call(o, path, path2)
		d := time.Since(t0)
		record := c.phase.Load() == phaseRecord
		if record {
			c.attempted++
			c.ops++
			c.busyNS += int64(d)
			c.sample(o.kind.class(), d)
			if o.kind == opWrite {
				c.userBytes += int64(o.n)
			}
			// A burst of a synchronous workload is 33 consecutive ops,
			// first call to last reply.
			if groupN == 0 {
				groupStart = t0
			}
			if groupN++; groupN == burstData+1 && !c.w.batch {
				c.bursts = append(c.bursts, uint32(min(time.Since(groupStart), 1<<32-1)))
				groupN = 0
			}
		} else {
			groupN = 0
		}
		if err != nil {
			if record {
				c.fail(fmt.Errorf("%s: %v of file %d: %w", c.w.name, o.kind, o.file, err))
			}
			continue
		}
		c.settle(o, c.rbuf[0][:o.n])
	}
}

// pipeline submits one burst — first and the piped ops that follow it —
// through the Batch and waits for every reply.
func (c *client) pipeline(first op) {
	c.burst, c.want = append(c.burst[:0], first), c.want[:0]
	for len(c.burst) < burstData+1 {
		c.burst = append(c.burst, c.gen.next())
	}
	if c.spans != nil {
		c.spans.beginBurst(len(c.burst))
	}
	var bytes int64
	t0 := time.Now()
	for i, o := range c.burst {
		f := c.files[o.file]
		switch o.kind {
		case opRead:
			c.bat.readAt(f, c.rbuf[i][:o.n], o.off)
		case opWrite:
			c.bat.writeAt(f, c.pool[o.pay:o.pay+o.n], o.off)
			bytes += int64(o.n)
		case opFsync:
			c.bat.fsync(f)
		}
		c.want = append(c.want, o.n)
	}
	failed, err := c.bat.wait(c.want)
	d := time.Since(t0)
	if c.spans != nil {
		c.spans.endBurst(len(c.burst), bytes)
	}
	if c.phase.Load() == phaseRecord {
		c.attempted += int64(len(c.burst))
		c.ops += int64(len(c.burst))
		c.busyNS += int64(d)
		c.userBytes += bytes
		c.bursts = append(c.bursts, uint32(min(d, 1<<32-1)))
		if err != nil || failed > 0 {
			c.failed += int64(failed)
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("%s: %d ops of a burst failed: %v", c.w.name, failed, err)
			}
		}
	}
	if err == nil && failed == 0 {
		for i, o := range c.burst {
			c.settle(o, c.rbuf[i][:o.n])
		}
	}
	c.bat.reset()
}

// procStat is the process's own cost counters.
type procStat struct {
	mallocs, allocBytes, gcPauseNS uint64
	cpu                            time.Duration
}

func readProc() procStat {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p := procStat{mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcPauseNS: m.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// window is what one timed window measured.
type window struct {
	wall          time.Duration
	clients       int
	lat           [numClasses][]uint32 // sorted
	bursts        []uint32             // sorted
	ops           int64
	busyNS        int64
	userBytes     int64
	attempted     int64
	failed        int64
	dropped       int64
	depth         float64
	before, after counters
	proc0, proc1  procStat
	firstErr      error
}

// measure runs the clients through a warm-up and one timed window. atStart
// runs at the instant the window opens.
func (in *instance) measure(warm, length time.Duration, atStart func()) *window {
	var wg sync.WaitGroup
	phase := in.clients[0].phase
	phase.Store(phaseWarm)
	for _, c := range in.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(0)
		}(c)
	}
	time.Sleep(warm)
	res := &window{clients: len(in.clients), before: in.s.counters(), proc0: readProc()}
	if atStart != nil {
		atStart()
	}
	t0 := time.Now()
	phase.Store(phaseRecord)
	time.Sleep(length)
	phase.Store(phaseStop)
	res.wall = time.Since(t0)
	res.after, res.proc1 = in.s.counters(), readProc()
	wg.Wait()

	for _, c := range in.clients {
		for cl := range c.lat {
			res.lat[cl] = append(res.lat[cl], c.lat[cl]...)
		}
		res.bursts = append(res.bursts, c.bursts...)
		res.ops += c.ops
		res.busyNS += c.busyNS
		res.userBytes += c.userBytes
		res.attempted += c.attempted
		res.failed += c.failed
		res.dropped += c.dropped
		if c.bat != nil {
			res.depth += c.bat.depth() / float64(len(in.clients))
		}
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	for cl := range res.lat {
		slices.Sort(res.lat[cl])
	}
	slices.Sort(res.bursts)
	return res
}

// checked is the outcome of a verification: how many checks were made and
// how many failed, plus what the remount measured.
type checked struct {
	attempted, failed int64
	firstErr          error
	drain, mount      time.Duration
	fsckErrors        int
}

func (v *checked) check(err error) {
	v.attempted++
	if err != nil {
		v.failed++
		if v.firstErr == nil {
			v.firstErr = err
		}
	}
}

// readBack compares every file the client should have with its shadow
// copy, reading through fs with the client's paths under root.
func (c *client) readBack(fs FileSystem, root string, only func(file int) bool) (v checked) {
	buf := make([]byte, lazyFileSize)
	compare := func(file int, path string, want []byte) {
		if only != nil && !only(file) {
			return
		}
		f, err := fs.Open(path, oRdwr)
		if err != nil {
			v.check(fmt.Errorf("read-back: open %s: %w", path, err))
			return
		}
		n, err := f.ReadAt(buf[:len(want)], 0)
		if err == io.EOF {
			err = nil
		}
		if err == nil && (n != len(want) || f.Size() != int64(len(want)) || !bytes.Equal(buf[:n], want)) {
			err = errors.New("content differs from the shadow copy")
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			err = fmt.Errorf("read-back: %s: %w", path, err)
		}
		v.check(err)
	}
	for i, want := range c.shadow {
		compare(i, root+c.paths[i], want)
	}
	for id, ref := range c.live {
		compare(id, churnPath(root, id), c.pool[ref.pay:ref.pay+ref.n])
	}
	return v
}

// fsck counts the image check as one check that fails on any finding.
func (v *checked) fsck(when string) {
	var err error
	if v.fsckErrors > 0 {
		err = fmt.Errorf("fsck %s: %d findings", when, v.fsckErrors)
	}
	v.check(err)
}

func (v *checked) add(o checked) {
	v.attempted += o.attempted
	v.failed += o.failed
	if v.firstErr == nil {
		v.firstErr = o.firstErr
	}
}

// verify reads everything back through the clients, drains and unmounts,
// runs MountRecover and fsck on the image, and reads everything back
// again from the recovered file system.
func (in *instance) verify() (v checked) {
	for _, c := range in.clients {
		v.add(c.readBack(c.fs, "", nil))
		for _, f := range c.files {
			v.check(f.Close())
		}
		for _, f := range c.open { // a churn file the stop caught between open and close
			v.check(f.Close())
		}
	}
	v.check(in.s.stopServing())
	var err error
	if v.drain, err = in.s.drain(); err != nil {
		v.check(err)
		return v
	}
	if v.mount, v.fsckErrors, err = in.s.remount(); err != nil {
		v.check(err)
		return v
	}
	v.fsck("after remount")
	for _, c := range in.clients {
		v.add(c.readBack(in.s.fs, c.root, nil))
	}
	v.check(in.s.fs.Unmount())
	return v
}

const crashOps = 2000

// crashLeg replays the first crashOps ops of the stream on a device that
// tracks persistence, cuts the power without unmounting, recovers, and
// requires every file whose last change was a completed fsync to read back
// exactly and fsck to be clean.
func crashLeg(w *workload, seed uint64) (v checked) {
	in, err := setUp(w, seed, devCrash, nil, time.Second)
	if err != nil {
		v.check(err)
		return v
	}
	c := in.clients[0]
	c.phase.Store(phaseRecord)
	c.run(crashOps)
	v.attempted, v.failed, v.firstErr = c.attempted, c.failed, c.firstErr
	in.s.crash()
	var ferr error
	if _, v.fsckErrors, ferr = in.s.remount(); ferr != nil {
		v.check(ferr)
		return v
	}
	v.fsck("after the crash")
	v.add(c.readBack(in.s.fs, c.root, func(file int) bool { return c.clean[file] }))
	v.check(in.s.fs.Unmount())
	return v
}
