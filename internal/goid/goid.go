// Package goid returns the current goroutine's ID cheaply and keeps the
// tree's one goroutine-keyed table (Local) on top of it.
//
// obs's per-request OpCtx attachment is that Local, keyed by goroutine
// ID. The portable way to get that ID is parsing the runtime.Stack
// header ("goroutine N [running]:"), but the traceback machinery behind
// runtime.Stack costs on the order of a microsecond, and the lookups sit
// on the per-persist device hot path: with a server op attached, every
// flush paid a traceback. ID replaces that with two loads: the g
// pointer from thread-local storage (one assembly instruction, stable
// across Go releases) and the goid field at an offset discovered at
// init. Race builds run the same path.
//
// The offset is not hard-coded. runtime.g's layout shifts between Go
// releases (1.24 inserted syscallbp, for example), so init derives it
// empirically: several fresh goroutines each scan their own g memory for
// the ID parsed from their own runtime.Stack header, and only an offset
// that matches on every goroutine survives. If zero or several offsets
// survive — a new runtime layout, a coincidental collision, or an
// architecture without the assembly shim — the package silently keeps
// the slow parse, so it is never less correct than what it replaces,
// only sometimes slower.
package goid

import (
	"runtime"
	"sync"
	"unsafe"
)

// goidOffset is the byte offset of runtime.g's goid field, or -1 when
// init could not establish one and ID uses the stack parse. Written once
// during package init, read-only after.
var goidOffset = -1

// scanWords bounds the offset scan to 256 bytes: goid sits at byte 160
// of runtime.g on go1.24, and the window must stay inside the g
// allocation (448 bytes), or a -race build's checkptr aborts on the read.
const scanWords = 32

func init() {
	if getg() == nil {
		return // no assembly shim for this architecture
	}
	// Each probe goroutine reports every offset holding its own ID; an
	// offset must hold on all of them to be believed. Fresh goroutines
	// get distinct, monotonically growing IDs, so a stray field that
	// happens to equal one goroutine's ID cannot track all four.
	const probes = 4
	var (
		wg    sync.WaitGroup
		cands [probes][]int
	)
	for i := 0; i < probes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := parseID()
			g := getg()
			for off := 0; off < scanWords*8; off += 8 {
				if *(*int64)(unsafe.Add(g, off)) == id {
					cands[i] = append(cands[i], off)
				}
			}
		}(i)
	}
	wg.Wait()
	match := -1
	for _, off := range cands[0] {
		ok := true
		for i := 1; i < probes; i++ {
			found := false
			for _, o := range cands[i] {
				if o == off {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			if match != -1 {
				return // ambiguous: two offsets survived, trust neither
			}
			match = off
		}
	}
	goidOffset = match
}

// ID returns the current goroutine's ID. Two loads on the fast path;
// falls back to parsing the runtime.Stack header when init could not
// validate a field offset.
func ID() int64 {
	if goidOffset >= 0 {
		return *(*int64)(unsafe.Add(getg(), goidOffset))
	}
	return parseID()
}

// Fast reports whether ID runs on the validated two-load path.
func Fast() bool { return goidOffset >= 0 }

// parseBufPool recycles the runtime.Stack parse buffers: the slice
// passed to runtime.Stack escapes, so a stack-local buffer would cost
// one heap allocation per lookup.
var parseBufPool = sync.Pool{New: func() any { return new([64]byte) }}

// parseID is the portable slow path: parse the goroutine ID from the
// runtime.Stack header ("goroutine N [running]:"). The buffer is
// deliberately too small for the full stack; only the header matters.
func parseID() int64 {
	bp := parseBufPool.Get().(*[64]byte)
	n := runtime.Stack(bp[:], false)
	// Skip "goroutine " (10 bytes) and read digits.
	var id int64
	for _, b := range bp[10:n] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + int64(b-'0')
	}
	parseBufPool.Put(bp)
	return id
}
