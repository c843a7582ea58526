package flight

import "hinfs/internal/vfs"

// WrapFS decorates fs so every operation appends one flight record to r
// — the non-server recording path, used by direct-library embedders and
// the obs-overhead benchmark leg. Stamping is allocation-free on the
// data plane (ReadAt/WriteAt/Fsync). Trace and stage breakdown are left
// zero: the library path has neither a wire trace nor a scheduler. A
// tenant name longer than MaxTenant is stored truncated.
func WrapFS(fs vfs.FileSystem, r *Recorder, tenant string) vfs.FileSystem {
	return vfs.Intercept(fs, &stamper{r: r, tenant: tenant})
}

// stamper is the vfs.Observer behind WrapFS.
type stamper struct {
	r      *Recorder
	tenant string
}

func (*stamper) Begin(vfs.Op) {}

func (s *stamper) End(c vfs.Call) {
	rec := Record{
		Ino:    c.Ino,
		Off:    c.Off,
		Start:  c.Start.UnixNano(),
		Len:    uint32(c.N),
		Op:     c.Op,
		Tenant: s.tenant,
	}
	// err is folded to a 0/1 result code — the library path has no wire
	// status vocabulary. A partial read at EOF is a success.
	if c.Err != nil && !(c.Op == vfs.OpRead && c.N > 0) {
		rec.Result = 1
	}
	s.r.Record(&rec)
}
