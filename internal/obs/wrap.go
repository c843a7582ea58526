package obs

import (
	"time"

	"hinfs/internal/vfs"
)

// WrapFS instruments fs at the VFS boundary: every operation's latency
// is recorded into c's op-class histograms. Because the interceptor
// works on the vfs interfaces, the same instrumentation covers HiNFS and
// every baseline system, which is what makes cross-system latency tables
// (hinfs-bench -fig latency) comparable. A nil collector returns fs
// unchanged.
func WrapFS(fs vfs.FileSystem, c *Collector) vfs.FileSystem {
	if c == nil {
		return fs
	}
	return vfs.Intercept(fs, opTimer{c})
}

// opTimer is the vfs.Observer behind WrapFS.
type opTimer struct{ c *Collector }

func (opTimer) Begin(vfs.Op) {}

func (t opTimer) End(c vfs.Call) {
	class := OpMeta
	switch c.Op {
	case vfs.OpRead:
		class = OpRead
	case vfs.OpWrite:
		class = OpWrite
	case vfs.OpFsync:
		class = OpFsync
	case vfs.OpCreate:
		class = OpCreate
	case vfs.OpOpen:
		if c.Flags&vfs.OCreate != 0 {
			class = OpCreate
		}
	case vfs.OpUnlink:
		class = OpUnlink
	case vfs.OpClose:
		return // handle lifecycle, not a workload op
	}
	t.c.Op(class, time.Since(c.Start))
}
