package main

// gen.go turns a seed into each workload's op stream. The generators are
// pure: they never look at the file system, so the same seed always yields
// the same calls, and the stack under test sees nothing but those calls.

// rng is splitmix64: small, seedable, and ours — the stream must not
// change when the Go release does.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// chance reports true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opFsync
	opStat
	opCreate
	opOpen
	opClose
	opRename
	opUnlink
	opBurst // a pipelined burst as its client sees it: a span label, never generated
)

var opNames = [...]string{"read", "write", "fsync", "stat", "create", "open", "close", "rename", "unlink", "burst"}

func (k opKind) String() string { return opNames[k] }

// class is the op class a client-observed latency is reported under.
type class uint8

const (
	clRead class = iota
	clWrite
	clFsync
	clMeta
	numClasses
)

var classNames = [numClasses]string{"read", "write", "fsync", "meta"}

func (k opKind) class() class {
	switch k {
	case opRead:
		return clRead
	case opWrite:
		return clWrite
	case opFsync:
		return clFsync
	}
	return clMeta
}

// op is one generated call. file (and file2, a rename's new name) index
// the workload's file table; pay is the offset of a write's bytes in the
// payload pool.
type op struct {
	kind  opKind
	file  int
	file2 int
	off   int64
	n     int
	pay   int
	// piped marks the ops served-batch submits through the pipelined
	// Batch; everything else (and every op of the other workloads) is a
	// synchronous call.
	piped bool
}

const (
	lineSize = 64
	kib      = 1 << 10
	mib      = 1 << 20
	poolSize = 2 * mib
	maxIO    = 16 * kib
)

// newPool is the payload pool: every byte a workload writes is a slice of
// it, so generating a write costs no copy and the shadow copy knows what
// the file system must return.
func newPool(seed uint64) []byte {
	r := rng{seed ^ 0x706f6f6c}
	p := make([]byte, poolSize)
	for i := 0; i < len(p); i += 8 {
		v := r.next()
		for k := 0; k < 8; k++ {
			p[i+k] = byte(v >> (8 * k))
		}
	}
	return p
}

// payAt picks a cacheline-aligned pool offset with room for maxIO bytes.
func payAt(r *rng) int { return r.intn((poolSize-maxIO)/lineSize) * lineSize }

// alignedOff picks a cacheline-aligned offset in [lo, hi-n].
func alignedOff(r *rng, lo, hi int64, n int) int64 {
	return lo + int64(r.intn(int((hi-lo-int64(n))/lineSize)+1))*lineSize
}

// generator yields one client's ops in order. It buffers the ops of one
// step (an iteration of the workload's loop) and refills when empty.
type generator struct {
	r     rng
	queue []op
	head  int
	step  func(g *generator)
	n     int // steps taken
}

func (g *generator) next() op {
	for g.head == len(g.queue) {
		g.queue, g.head = g.queue[:0], 0
		g.step(g)
		g.n++
	}
	o := g.queue[g.head]
	g.head++
	return o
}

func (g *generator) emit(o op) { g.queue = append(g.queue, o) }

// --- lazy-rw ---

const (
	lazyFiles    = 64
	lazyFileSize = 1 * mib
	lazyLogFile  = lazyFiles // a 65th file: the only one ever fsynced
	lazyLogSize  = 64 * kib
)

var lazySizes = [...]int{256, 256, kib, kib, 4 * kib, 4 * kib, 4 * kib, 4 * kib, 16 * kib, 16 * kib}

// lazyStep emits one op: 2 writes to 1 read over 64 data files with 80/20
// file and region locality, never fsynced. Of every 16 steps one stats a
// data file and one appends 256 B to a small log and fsyncs it: what an
// fsync and a lookup cost beside saturating lazy traffic. They are that
// frequent so that their class means rest on enough time that one 10 ms
// scheduling hiccup of the sandbox does not move them.
func lazyStep(g *generator) {
	r := &g.r
	switch g.n % 16 {
	case 15:
		off := int64(g.n/16%(lazyLogSize/256)) * 256
		g.emit(op{kind: opWrite, file: lazyLogFile, off: off, n: 256, pay: payAt(r)})
		g.emit(op{kind: opFsync, file: lazyLogFile})
		return
	case 7:
		g.emit(op{kind: opStat, file: r.intn(lazyFiles)})
		return
	}
	const hotFiles = lazyFiles / 5
	file := hotFiles + r.intn(lazyFiles-hotFiles)
	if r.chance(80) {
		file = r.intn(hotFiles)
	}
	// The hot fifth of each file starts at a block that differs per file.
	const blocks, hotBlocks = lazyFileSize / blockSize, lazyFileSize / blockSize / 5
	lo, hi := int64(0), int64(lazyFileSize)
	if r.chance(80) {
		lo = int64(file*37%(blocks-hotBlocks)) * blockSize
		hi = lo + hotBlocks*blockSize
	}
	n := lazySizes[r.intn(len(lazySizes))]
	o := op{kind: opWrite, file: file, off: alignedOff(r, lo, hi, n), n: n}
	if r.intn(3) == 2 {
		o.kind = opRead
	} else {
		o.pay = payAt(r)
	}
	g.emit(o)
}

// --- sync-small ---

const (
	syncFiles    = 16
	syncFileSize = 1 * mib
)

var syncSizes = [...]int{512, 2 * kib, 4 * kib, 8 * kib}

// syncStep emits 4 writes and 1 read; a write is fsynced at once 75 % of
// the time, otherwise on every 4th unsynced write. Every other step adds a
// stat, about one per 16 ops.
func syncStep(unsynced *int) func(g *generator) {
	return func(g *generator) {
		r := &g.r
		for i := 0; i < 4; i++ {
			f, n := r.intn(syncFiles), syncSizes[r.intn(len(syncSizes))]
			g.emit(op{kind: opWrite, file: f, off: alignedOff(r, 0, syncFileSize, n), n: n, pay: payAt(r)})
			if r.chance(75) {
				g.emit(op{kind: opFsync, file: f})
			} else if *unsynced++; *unsynced%4 == 0 {
				g.emit(op{kind: opFsync, file: f})
			}
		}
		n := syncSizes[r.intn(len(syncSizes))]
		g.emit(op{kind: opRead, file: r.intn(syncFiles), off: alignedOff(r, 0, syncFileSize, n), n: n})
		if g.n%2 == 1 {
			g.emit(op{kind: opStat, file: r.intn(syncFiles)})
		}
	}
}

// --- meta-churn ---

const (
	churnDirs = 32
	churnLive = 2000
)

// churnState is the generator's own model of the namespace: the live file
// ids and their sizes. File ids are never reused; an id's directory is
// id % churnDirs.
type churnState struct {
	live   []int
	size   map[int]int
	nextID int
}

// churnStep is one loop iteration: create a file, write 1–16 KiB, fsync it
// half the time, close; stat, open, read and close a random live file; and
// above the live-file cap, unlink a random file, renaming it first a
// quarter of the time.
func churnStep(st *churnState) func(g *generator) {
	return func(g *generator) {
		r := &g.r
		id := st.nextID
		st.nextID++
		n := (1 + r.intn(16)) * kib
		g.emit(op{kind: opCreate, file: id})
		g.emit(op{kind: opWrite, file: id, n: n, pay: payAt(r)})
		if r.chance(50) {
			g.emit(op{kind: opFsync, file: id})
		}
		g.emit(op{kind: opClose, file: id})
		st.live = append(st.live, id)
		st.size[id] = n

		peek := st.live[r.intn(len(st.live))]
		g.emit(op{kind: opStat, file: peek})
		g.emit(op{kind: opOpen, file: peek})
		g.emit(op{kind: opRead, file: peek, n: st.size[peek]})
		g.emit(op{kind: opClose, file: peek})

		if len(st.live) > churnLive {
			i := r.intn(len(st.live))
			victim := st.live[i]
			st.live[i] = st.live[len(st.live)-1]
			st.live = st.live[:len(st.live)-1]
			if r.chance(25) {
				to := st.nextID
				st.nextID++
				g.emit(op{kind: opRename, file: victim, file2: to})
				victim = to
			}
			g.emit(op{kind: opUnlink, file: victim})
			delete(st.size, victim)
		}
	}
}

// --- served-sync and served-batch ---

const (
	servedFiles    = 8
	servedFileSize = 256 * kib
	servedSlots    = servedFiles * servedFileSize / blockSize
	burstData      = 32 // data ops per burst; a trailing fsync makes 33
)

var servedSizes = [...]int{256, kib, 4 * kib}

// servedStep emits one cycle of a tenant's stream: 32 reads and writes
// (50/50), an fsync, and the two stats that "stat every 16 ops" owes;
// every 4th cycle adds one more read, write and fsync. The 32 data ops of
// a cycle touch 32 different 4 KiB slots, so the cycle means the same
// whatever order a pipelining server runs it in. served-sync issues the
// cycle call by call; served-batch pipelines the first 33 ops as one burst
// and issues the rest synchronously.
func servedStep(g *generator) {
	r := &g.r
	var used [servedSlots]bool
	data := func(piped bool, kind opKind) op {
		slot := r.intn(servedSlots)
		for used[slot] {
			slot = r.intn(servedSlots)
		}
		used[slot] = true
		n := servedSizes[r.intn(len(servedSizes))]
		lo := int64(slot%(servedFileSize/blockSize)) * blockSize
		o := op{kind: kind, file: slot / (servedFileSize / blockSize), off: alignedOff(r, lo, lo+blockSize, n), n: n, piped: piped}
		if kind == opWrite {
			o.pay = payAt(r)
		}
		return o
	}
	last := 0
	for i := 0; i < burstData; i++ {
		kind := opRead
		if r.chance(50) {
			kind = opWrite
		}
		o := data(true, kind)
		if kind == opWrite {
			last = o.file
		}
		g.emit(o)
	}
	g.emit(op{kind: opFsync, file: last, piped: true})
	g.emit(op{kind: opStat, file: r.intn(servedFiles)})
	g.emit(op{kind: opStat, file: r.intn(servedFiles)})
	if g.n%4 == 3 {
		g.emit(data(false, opRead))
		w := data(false, opWrite)
		g.emit(w)
		g.emit(op{kind: opFsync, file: w.file})
	}
}

// streamHash folds the first n ops of a generator into one number.
func streamHash(g *generator, n int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for i := 0; i < n; i++ {
		o := g.next()
		mix(uint64(o.kind))
		mix(uint64(o.file))
		mix(uint64(o.file2))
		mix(uint64(o.off))
		mix(uint64(o.n))
		mix(uint64(o.pay))
		if o.piped {
			mix(1)
		}
	}
	return h
}
