// Package flight is a black-box flight recorder persisted in NVMM: a
// ring of fixed-width, CRC-protected records appended with non-temporal
// stores and *no per-record fence*. The write path costs one WriteNT
// (two cachelines) per operation and never blocks on durability; the
// price is that after a crash the tail of the ring may be torn or
// missing. The decoder embraces that: every slot is validated
// independently (sequence number consistent with its slot position +
// CRC over the record body), so a torn final record is detected and
// dropped rather than corrupting the report, and the surviving suffix
// is exactly the set of records whose lines happened to reach
// persistence before power cut.
//
// Durability semantics (what a decoded record proves — see DESIGN.md):
// a CRC-valid record for op X proves X *completed* before the crash
// (the record is written only after the op returns). It does NOT prove
// X's own effects are durable — except when X carries its own ordering
// (fsync/sync), whose persist events necessarily precede the record's.
package flight

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// Region layout:
//
//	[0,64)              header (one cacheline): magic, version, geometry
//	[64, 64+N*128)      N record slots, 128 bytes (two cachelines) each
//
// Record slot layout (little-endian; crc covers [0,120)):
//
//	off  size  field
//	  0     8  seq     1-based sequence number; slot = (seq-1) % N
//	  8     8  trace   wire trace ID (joins slow-op logs, op schedules)
//	 16     8  ino     inode number (0 when the op has none)
//	 24     8  off     byte offset (int64 bits; 0 when n/a)
//	 32     8  start   op start, unix nanoseconds
//	 40     4  len     I/O length in bytes
//	 44     1  op      vfs.Op code (values 1–14 are frozen)
//	 45     1  result  0 = ok, else the server status / error code
//	 46     1  tlen    tenant-name length (<= 16)
//	 47    16  tenant  tenant name bytes, zero-padded
//	 63     1  pad
//	 64    48  stages  [obs.NumStages]u64 per-stage nanoseconds
//	112     8  reserved
//	120     4  crc     IEEE CRC-32 over bytes [0,120)
//	124     4  pad
const (
	HeaderSize = 64
	SlotSize   = 128

	headerMagic   = 0x464c495448494e46 // "FLITHINF"
	headerVersion = 1

	// MaxTenant is the longest tenant name a record stores; longer names
	// are truncated (the decoder reports what was stored).
	MaxTenant = 16

	crcEnd = 120
)

// OpWrite aliases vfs.OpWrite for the benchmark adapter, which spells it
// this way and is frozen; everything else names ops as vfs.Op* directly.
const OpWrite = vfs.OpWrite

// Record is one flight-recorder entry, both the write-side input and the
// decode-side output.
type Record struct {
	Seq    uint64
	Trace  uint64
	Ino    uint64
	Off    int64
	Start  int64 // unix nanoseconds at op start
	Len    uint32
	Op     vfs.Op
	Result uint8
	Tenant string
	Stages [obs.NumStages]int64
}

var crcTable = crc32.MakeTable(crc32.IEEE)

// crcBody is crc32.ChecksumIEEE, hand-rolled: the stdlib entry point
// dispatches through an arch-specific function variable, which makes
// escape analysis treat its argument as leaking — and that would force
// the record buffer in Record to the heap, breaking the zero-alloc
// contract of the append path.
func crcBody(b []byte) uint32 {
	c := ^uint32(0)
	for _, x := range b {
		c = crcTable[byte(c)^x] ^ (c >> 8)
	}
	return ^c
}

// encode serializes r (with the given seq) into buf. buf must be
// SlotSize bytes; the caller provides it so the hot path stays
// allocation-free.
func encode(buf *[SlotSize]byte, r *Record, seq uint64) {
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[8:], r.Trace)
	binary.LittleEndian.PutUint64(buf[16:], r.Ino)
	binary.LittleEndian.PutUint64(buf[24:], uint64(r.Off))
	binary.LittleEndian.PutUint64(buf[32:], uint64(r.Start))
	binary.LittleEndian.PutUint32(buf[40:], r.Len)
	buf[44] = byte(r.Op)
	buf[45] = r.Result
	t := r.Tenant
	if len(t) > MaxTenant {
		t = t[:MaxTenant]
	}
	buf[46] = uint8(len(t))
	copy(buf[47:47+MaxTenant], t)
	for i, ns := range r.Stages {
		binary.LittleEndian.PutUint64(buf[64+8*i:], uint64(ns))
	}
	binary.LittleEndian.PutUint32(buf[crcEnd:], crcBody(buf[:crcEnd]))
}

// decodeSlot parses one slot. ok=false means the slot holds no valid
// record; torn=true additionally means it holds a *partially persisted*
// one (non-zero bytes that fail the CRC) — the torn-tail signature.
func decodeSlot(slot []byte) (r Record, ok, torn bool) {
	zero := true
	for _, b := range slot {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return Record{}, false, false
	}
	if crcBody(slot[:crcEnd]) != binary.LittleEndian.Uint32(slot[crcEnd:]) {
		return Record{}, false, true
	}
	r.Seq = binary.LittleEndian.Uint64(slot[0:])
	r.Trace = binary.LittleEndian.Uint64(slot[8:])
	r.Ino = binary.LittleEndian.Uint64(slot[16:])
	r.Off = int64(binary.LittleEndian.Uint64(slot[24:]))
	r.Start = int64(binary.LittleEndian.Uint64(slot[32:]))
	r.Len = binary.LittleEndian.Uint32(slot[40:])
	r.Op = vfs.Op(slot[44])
	r.Result = slot[45]
	tlen := int(slot[46])
	if tlen > MaxTenant {
		tlen = MaxTenant
	}
	r.Tenant = string(slot[47 : 47+tlen])
	for i := range r.Stages {
		r.Stages[i] = int64(binary.LittleEndian.Uint64(slot[64+8*i:]))
	}
	return r, true, false
}

// Slots returns how many record slots fit in a region of size bytes.
func Slots(size int64) int64 {
	if size < HeaderSize+SlotSize {
		return 0
	}
	return (size - HeaderSize) / SlotSize
}

// Format initializes a flight region: zeroes every slot and writes the
// header, flushed and fenced (formatting is rare; the recorder itself
// never fences).
func Format(dev *nvmm.Device, off, size int64) error {
	slots := Slots(size)
	if slots <= 0 {
		return fmt.Errorf("flight: region too small (%d bytes, need >= %d)", size, HeaderSize+SlotSize)
	}
	var zero [4096]byte
	for at := off; at < off+size; {
		n := int64(len(zero))
		if rem := off + size - at; rem < n {
			n = rem
		}
		dev.Write(zero[:n], at)
		at += n
	}
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], headerMagic)
	binary.LittleEndian.PutUint32(hdr[8:], headerVersion)
	binary.LittleEndian.PutUint32(hdr[12:], SlotSize)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(slots))
	dev.Write(hdr[:], off)
	dev.Flush(off, int(size))
	dev.Fence()
	return nil
}

// Recorder appends records to a formatted flight region. Record is safe
// for concurrent use and allocation-free.
type Recorder struct {
	dev   *nvmm.Device
	off   int64 // region start (header)
	slots int64
	seq   atomic.Uint64 // last issued sequence number
}

// Attach opens a formatted flight region for recording, resuming the
// sequence counter past every surviving record (so records from before
// a crash/restart are never reused-then-ambiguous).
func Attach(dev *nvmm.Device, off, size int64) (*Recorder, error) {
	log, err := Decode(dev, off, size)
	if err != nil {
		return nil, err
	}
	r := &Recorder{dev: dev, off: off, slots: log.SlotCount}
	r.seq.Store(log.MaxSeq)
	return r, nil
}

// Slots returns the ring's slot count.
func (r *Recorder) Slots() int64 {
	if r == nil {
		return 0
	}
	return r.slots
}

// Seq returns the last issued sequence number (how many records have
// ever been appended, across mounts).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Record appends one entry: a single two-cacheline posted WriteNT into
// the slot owned by the next sequence number, with no flush and no
// fence. Posted means the issuing goroutine never waits on the emulated
// media — on real hardware an unfenced movnti retires immediately and
// drains from the write-combining buffer in the background, which is
// exactly why the recorder fits inside the observability budget. The
// store is durable as soon as the pipeline drains it; a crash
// immediately after Record may lose or tear this entry — by design.
// Nil-safe: a nil recorder drops the entry.
//
// The caller fills rec; rec.Seq is assigned here.
func (r *Recorder) Record(rec *Record) uint64 {
	if r == nil {
		return 0
	}
	seq := r.seq.Add(1)
	slot := int64((seq - 1) % uint64(r.slots))
	var buf [SlotSize]byte
	encode(&buf, rec, seq)
	r.dev.WriteNTPosted(buf[:], r.off+HeaderSize+slot*SlotSize)
	return seq
}
