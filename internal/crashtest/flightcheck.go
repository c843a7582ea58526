package crashtest

import (
	"fmt"
	"io"

	"hinfs/internal/core"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs/flight"
	"hinfs/internal/vfs"
)

// Forensics is the post-mortem flow: re-execute the deterministic
// workload, walk its recording to the crash state before event,
// materialize the torn image selected by tornSeed, remount it through
// journal recovery, and write the surviving flight ring as JSON lines —
// one per record, trace IDs in the same %016x form the slow-op logs use,
// so the two join directly.
func Forensics(cfg Config, event int64, tornSeed uint64, w io.Writer) error {
	cfg.fill()
	cfg.Flight = true
	run, err := cfg.runOnce()
	if err != nil {
		return err
	}
	var dev *nvmm.Device
	run.history.Walk(func(s *nvmm.CrashState) {
		if s.Event() == event {
			dev, err = s.Materialize(tornSeed)
		}
	})
	if err != nil {
		return err
	}
	if dev == nil {
		return fmt.Errorf("crashtest: no crash state at event %d (schedule has %d events, %d in setup)", event, run.totalEv, run.setupEv)
	}
	fs, _, err := core.MountRecover(dev, cfg.fsOpts())
	if err != nil {
		return fmt.Errorf("crashtest: forensics remount: %w", err)
	}
	defer fs.Abandon()
	off, size := fs.FlightRegion()
	if size == 0 {
		return fmt.Errorf("crashtest: recovered image has no flight region")
	}
	log, err := flight.Decode(dev, off, size)
	if err != nil {
		return err
	}
	return log.WriteJSON(w)
}

// verifyFlight cross-checks the flight-record suffix recovered from one
// crash image against the recorded op schedule — the invariant class the
// recorder's no-fence design must honor:
//
//	flight-phantom   a surviving record names an op whose record was not
//	                 even written when the crash hit (seq issued after the
//	                 crash event) — the recorder "remembers the future".
//	flight-lost      an op's record was written strictly before the crash
//	                 event (WriteNT commits its own lines right after its
//	                 fault point) yet did not survive into the image.
//	flight-foreign   a CRC-valid record matches no op the schedule issued.
//	flight-mismatch  a surviving record's fields disagree with the op it
//	                 claims to describe.
//	flight-synced-lost
//	                 a surviving fsync record proves that fsync completed,
//	                 so its synced bytes must be durable: the file must
//	                 exist with at least the synced size (unless a later
//	                 namespace op on the path started before the crash).
//
// The checks intentionally use only (a) the decoded region of the crash
// image and (b) the recorded schedule — exactly what a real post-mortem
// has: the black box plus the ops the clients know they issued.
func (cfg *Config) verifyFlight(rep *Report, base *runResult, fs *core.FS, dev *nvmm.Device, pt int64, seed uint64) {
	off, size := fs.FlightRegion()
	if size == 0 {
		rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-region",
			Detail: "flight enabled but the recovered image has no flight region"}, cfg.Log)
		return
	}
	log, err := flight.Decode(dev, off, size)
	if err != nil {
		rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-decode", Detail: err.Error()}, cfg.Log)
		return
	}
	bySeq := make(map[uint64]*opRecord, len(base.recs))
	for i := range base.recs {
		rec := &base.recs[i]
		if rec.flightSeq != 0 {
			if _, dup := bySeq[rec.flightSeq]; !dup { // rename logs two opRecords under one seq
				bySeq[rec.flightSeq] = rec
			}
		}
	}
	// Surviving records: each must be genuine and must describe a
	// completed op.
	for i := range log.Records {
		d := &log.Records[i]
		rec, ok := bySeq[d.Seq]
		if !ok {
			rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-foreign",
				Detail: fmt.Sprintf("decoded record seq %d matches no op the schedule issued", d.Seq)}, cfg.Log)
			continue
		}
		if rec.flightEv > pt {
			rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-phantom", Path: rec.path,
				Detail: fmt.Sprintf("record seq %d (%s) was written at event %d, after the crash at %d",
					d.Seq, d.Op, rec.flightEv, pt)}, cfg.Log)
			continue
		}
		if d.Op != rec.flightOp {
			rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-mismatch", Path: rec.path,
				Detail: fmt.Sprintf("record seq %d decodes as %s, schedule issued %s",
					d.Seq, d.Op, rec.flightOp)}, cfg.Log)
			continue
		}
		if d.Op == vfs.OpFsync {
			cfg.checkSyncedFloor(rep, base, fs, d, rec, pt, seed)
		}
	}
	// Completeness: every record written strictly before the crash must
	// survive (its WriteNT committed its lines before event pt), unless
	// the ring lapped it.
	oldest := log.OldestRetained()
	for seq, rec := range bySeq {
		if rec.flightEv >= pt || seq < oldest {
			continue
		}
		if !log.Contains(seq) {
			rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-lost", Path: rec.path,
				Detail: fmt.Sprintf("record seq %d (%s, written at event %d) is durable by %d but did not decode",
					seq, rec.flightOp, rec.flightEv, pt)}, cfg.Log)
		}
	}
}

// checkSyncedFloor asserts the one durability claim a flight record can
// make about its op's own effects: a surviving fsync record proves the
// fsync completed (its persist events all precede the record's WriteNT),
// so the synced size must be met — unless a later op on the path
// (unlink, truncate, rename, re-create) had started by the crash and may
// have legitimately changed it.
func (cfg *Config) checkSyncedFloor(rep *Report, base *runResult, fs *core.FS, d *flight.Record, rec *opRecord, pt int64, seed uint64) {
	later := false
	seen := false
	for i := range base.recs {
		r2 := &base.recs[i]
		if r2 == rec {
			seen = true
			continue
		}
		if !seen || r2.path != rec.path || r2.startEv >= pt {
			continue
		}
		switch r2.kind {
		case opUnlink, opUntrack, opCreate, opRmdir:
			later = true
		}
	}
	if later {
		return
	}
	fi, err := fs.Stat(rec.path)
	if err != nil {
		rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-synced-lost", Path: rec.path,
			Detail: fmt.Sprintf("fsync record seq %d survived but the file is gone (synced %d bytes): %v",
				d.Seq, rec.synced, err)}, cfg.Log)
		return
	}
	if fi.Size < rec.synced {
		rep.add(Violation{Event: pt, Seed: seed, Invariant: "flight-synced-lost", Path: rec.path,
			Detail: fmt.Sprintf("fsync record seq %d survived but size %d is below the synced floor %d",
				d.Seq, fi.Size, rec.synced)}, cfg.Log)
	}
}
