package flight

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"hinfs/internal/obs"
)

// Log is the decoded contents of a flight region: the surviving records
// plus an accounting of what did not survive, which is forensic signal
// in its own right (a torn slot marks the record in flight at power
// cut; gaps mark records whose lines never drained).
type Log struct {
	// SlotCount is the ring's capacity in records.
	SlotCount int64
	// MaxSeq is the highest sequence number among surviving records
	// (0 when the ring is empty).
	MaxSeq uint64
	// Records holds every CRC-valid record, ascending by Seq.
	Records []Record
	// Torn counts slots holding partially persisted records: non-zero
	// bytes that fail CRC or carry a sequence number inconsistent with
	// the slot position (a mix of two records' cachelines).
	Torn int
	// Gaps counts sequence numbers missing from the retained window
	// [max(1, MaxSeq-SlotCount+1), MaxSeq] — records that were issued
	// (later survivors prove it) but whose NT stores never drained.
	Gaps int
}

// OldestRetained returns the lowest sequence number the ring could still
// hold given MaxSeq — older records were overwritten by lapping, not
// lost to the crash.
func (l *Log) OldestRetained() uint64 {
	if l.MaxSeq == 0 {
		return 0
	}
	if l.MaxSeq <= uint64(l.SlotCount) {
		return 1
	}
	return l.MaxSeq - uint64(l.SlotCount) + 1
}

// DecodeBytes decodes a flight region image (header + slots).
func DecodeBytes(b []byte) (*Log, error) {
	if len(b) < HeaderSize+SlotSize {
		return nil, fmt.Errorf("flight: region too small (%d bytes)", len(b))
	}
	if m := binary.LittleEndian.Uint64(b[0:]); m != headerMagic {
		return nil, fmt.Errorf("flight: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != headerVersion {
		return nil, fmt.Errorf("flight: unsupported version %d", v)
	}
	if ss := binary.LittleEndian.Uint32(b[12:]); ss != SlotSize {
		return nil, fmt.Errorf("flight: unsupported slot size %d", ss)
	}
	slots := int64(binary.LittleEndian.Uint64(b[16:]))
	if slots <= 0 || HeaderSize+slots*SlotSize > int64(len(b)) {
		return nil, fmt.Errorf("flight: header slot count %d exceeds region", slots)
	}
	l := &Log{SlotCount: slots}
	for i := int64(0); i < slots; i++ {
		rec, ok, torn := decodeSlot(b[HeaderSize+i*SlotSize : HeaderSize+(i+1)*SlotSize])
		if torn {
			l.Torn++
			continue
		}
		if !ok {
			continue
		}
		if rec.Seq == 0 || int64((rec.Seq-1)%uint64(slots)) != i {
			// CRC-valid but in the wrong slot: two records' cachelines
			// interleaved into a coincidentally-valid image, or a foreign
			// write. Treat as torn — it is not trustworthy.
			l.Torn++
			continue
		}
		l.Records = append(l.Records, rec)
		if rec.Seq > l.MaxSeq {
			l.MaxSeq = rec.Seq
		}
	}
	sort.Slice(l.Records, func(i, j int) bool { return l.Records[i].Seq < l.Records[j].Seq })
	if l.MaxSeq > 0 {
		window := l.MaxSeq - l.OldestRetained() + 1
		l.Gaps = int(window) - len(l.Records)
	}
	return l, nil
}

// regionReader is the subset of nvmm.Device the decoder needs.
type regionReader interface {
	Read(dst []byte, off int64)
}

// Decode reads and decodes the flight region at [off, off+size) of dev.
func Decode(dev regionReader, off, size int64) (*Log, error) {
	b := make([]byte, size)
	dev.Read(b, off)
	return DecodeBytes(b)
}

// Contains reports whether seq survived into the decoded log.
func (l *Log) Contains(seq uint64) bool {
	i := sort.Search(len(l.Records), func(i int) bool { return l.Records[i].Seq >= seq })
	return i < len(l.Records) && l.Records[i].Seq == seq
}

// WriteJSON emits the log as JSON lines: one object per surviving
// record (ascending seq), then one trailer object summarizing ring
// health. Trace IDs are formatted exactly like slow-op logs
// (obs.TraceString), so the two join with a plain string match.
func (l *Log) WriteJSON(w io.Writer) error {
	for i := range l.Records {
		r := &l.Records[i]
		if _, err := fmt.Fprintf(w,
			`{"kind":"flight","seq":%d,"trace":"%s","tenant":%q,"op":"%s","ino":%d,"off":%d,"len":%d,"result":%d,"start_unix_ns":%d`,
			r.Seq, obs.TraceString(r.Trace), r.Tenant, r.Op, r.Ino, r.Off, r.Len, r.Result, r.Start); err != nil {
			return err
		}
		for _, st := range obs.Stages() {
			if _, err := fmt.Fprintf(w, `,"%s_ns":%d`, st, r.Stages[st]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}\n"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"{\"kind\":\"flight_summary\",\"slots\":%d,\"records\":%d,\"max_seq\":%d,\"oldest_retained\":%d,\"torn\":%d,\"gaps\":%d}\n",
		l.SlotCount, len(l.Records), l.MaxSeq, l.OldestRetained(), l.Torn, l.Gaps)
	return err
}
