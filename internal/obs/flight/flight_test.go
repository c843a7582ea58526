package flight

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"hinfs/internal/cacheline"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

func testDevice(t *testing.T, size int64, track bool) *nvmm.Device {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: size, TrackPersistence: track})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// regionImage formats a region on a device, appends records via r, and
// returns the raw region bytes.
func regionImage(t *testing.T, slots int64, recs []Record) []byte {
	t.Helper()
	size := HeaderSize + slots*SlotSize
	devSize := (size + 4095) / 4096 * 4096
	dev := testDevice(t, devSize, false)
	if err := Format(dev, 0, size); err != nil {
		t.Fatal(err)
	}
	r, err := Attach(dev, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		r.Record(&recs[i])
	}
	b := make([]byte, size)
	dev.Read(b, 0)
	return b
}

func TestRoundTrip(t *testing.T) {
	want := Record{
		Trace:  0xdeadbeefcafe,
		Ino:    42,
		Off:    4096,
		Start:  time.Now().UnixNano(),
		Len:    8192,
		Op:     vfs.OpWrite,
		Result: 0,
		Tenant: "gold",
		Stages: [obs.NumStages]int64{1, 2, 3, 4, 5, 6},
	}
	img := regionImage(t, 8, []Record{want})
	log, err := DecodeBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 1 || log.Torn != 0 || log.Gaps != 0 {
		t.Fatalf("decode: %d records, %d torn, %d gaps", len(log.Records), log.Torn, log.Gaps)
	}
	got := log.Records[0]
	want.Seq = 1
	if got != want {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, want)
	}
}

func TestTenantTruncation(t *testing.T) {
	img := regionImage(t, 4, []Record{{Tenant: "a-tenant-name-well-beyond-sixteen"}})
	log, err := DecodeBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Records[0].Tenant; got != "a-tenant-name-we" {
		t.Fatalf("tenant = %q", got)
	}
}

// TestDecodeTable covers the decoder's torn-tail taxonomy.
func TestDecodeTable(t *testing.T) {
	mkRecs := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Trace: uint64(i + 1), Op: vfs.OpWrite, Ino: uint64(i)}
		}
		return recs
	}
	const slots = 8
	cases := []struct {
		name    string
		recs    int
		mutate  func(img []byte) // img is the whole region
		records int
		maxSeq  uint64
		torn    int
		gaps    int
	}{
		{name: "empty ring", recs: 0, records: 0, maxSeq: 0},
		{name: "partial ring", recs: 3, records: 3, maxSeq: 3},
		{name: "exactly full", recs: slots, records: slots, maxSeq: slots},
		{
			// 13 records in 8 slots: seqs 6..13 survive, 1..5 were lapped.
			name: "wrapped ring", recs: 13, records: slots, maxSeq: 13,
		},
		{
			// Corrupt one byte of the last record's body: CRC must reject
			// it and classify the slot as torn (non-zero bytes, bad CRC).
			name: "torn crc", recs: 5,
			mutate: func(img []byte) {
				img[HeaderSize+4*SlotSize+20] ^= 0xff
			},
			records: 4, maxSeq: 4, torn: 1,
		},
		{
			// Zero out record 3's slot entirely: a seqno gap — later
			// survivors (4, 5) prove it was issued, but no bytes drained.
			name: "seqno gap", recs: 5,
			mutate: func(img []byte) {
				for i := HeaderSize + 2*SlotSize; i < HeaderSize+3*SlotSize; i++ {
					img[i] = 0
				}
			},
			records: 4, maxSeq: 5, gaps: 1,
		},
		{
			// A CRC-valid record sitting in the wrong slot is untrustworthy
			// (interleaved lines of two laps): copy slot 0's record into
			// slot 6 (slot 6 held nothing).
			name: "misplaced record", recs: 3,
			mutate: func(img []byte) {
				copy(img[HeaderSize+6*SlotSize:HeaderSize+7*SlotSize],
					img[HeaderSize+0*SlotSize:HeaderSize+1*SlotSize])
			},
			records: 3, maxSeq: 3, torn: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := regionImage(t, slots, mkRecs(tc.recs))
			if tc.mutate != nil {
				tc.mutate(img)
			}
			log, err := DecodeBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			if len(log.Records) != tc.records || log.MaxSeq != tc.maxSeq ||
				log.Torn != tc.torn || log.Gaps != tc.gaps {
				t.Fatalf("got %d records maxSeq=%d torn=%d gaps=%d; want %d/%d/%d/%d",
					len(log.Records), log.MaxSeq, log.Torn, log.Gaps,
					tc.records, tc.maxSeq, tc.torn, tc.gaps)
			}
			for i := 1; i < len(log.Records); i++ {
				if log.Records[i].Seq <= log.Records[i-1].Seq {
					t.Fatal("records not ascending by seq")
				}
			}
		})
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	img := regionImage(t, 4, nil)
	img[0] ^= 1
	if _, err := DecodeBytes(img); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	img[0] ^= 1
	binary.LittleEndian.PutUint64(img[16:], 1<<40) // slot count beyond region
	if _, err := DecodeBytes(img); err == nil {
		t.Fatal("oversized slot count accepted")
	}
}

// TestTornPermutations materializes a crash at the final record's WriteNT
// with every torn-cacheline subset of that record (both lines, first
// only, second only, neither) and checks the decoder classifies each
// image correctly: the final record either survives whole or is detected
// as torn/missing — never misdecoded.
func TestTornPermutations(t *testing.T) {
	if SlotSize != 2*cacheline.Size {
		t.Fatalf("test assumes 2-line slots (SlotSize=%d)", SlotSize)
	}
	const regionSize = 4096
	dev := testDevice(t, regionSize, true)
	if err := Format(dev, 0, regionSize); err != nil {
		t.Fatal(err)
	}
	r, err := Attach(dev, 0, regionSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.Record(&Record{Trace: uint64(i + 1), Op: vfs.OpWrite})
	}
	dev.Fence() // make records 1..3 durable
	// Crash exactly at the 4th record's WriteNT persist event: its two
	// cachelines are pending, and seed selects the surviving subset.
	history := dev.Record()
	target := dev.PersistEvents() + 1
	r.Record(&Record{Trace: 4, Op: vfs.OpFsync})
	var logs []*Log
	history.Walk(func(st *nvmm.CrashState) {
		for seed := uint64(0); seed < 64 && st.Event() == target; seed++ {
			img, err := st.Materialize(seed)
			if err != nil {
				t.Fatal(err)
			}
			log, err := Decode(img, 0, regionSize)
			if err != nil {
				t.Fatal(err)
			}
			logs = append(logs, log)
		}
	})
	sawWhole, sawTorn, sawMissing := false, false, false
	// Seed 0 drops every pending line; other seeds keep pseudo-random
	// subsets. Sweeping many seeds hits each of the 4 line subsets.
	for seed, log := range logs {
		// Records 1..3 were fenced durable before the crash: they must
		// decode bit-exact under every permutation.
		if len(log.Records) < 3 {
			t.Fatalf("seed %d: durable prefix lost (%d records)", seed, len(log.Records))
		}
		for i := 0; i < 3; i++ {
			if log.Records[i].Seq != uint64(i+1) || log.Records[i].Trace != uint64(i+1) {
				t.Fatalf("seed %d: durable record %d corrupted: %+v", seed, i, log.Records[i])
			}
		}
		switch {
		case len(log.Records) == 4:
			// Whole record survived: must be exactly what was written.
			r := log.Records[3]
			if r.Seq != 4 || r.Trace != 4 || r.Op != vfs.OpFsync || log.Torn != 0 {
				t.Fatalf("seed %d: surviving tail misdecoded: %+v torn=%d", seed, r, log.Torn)
			}
			sawWhole = true
		case log.Torn == 1:
			// One line survived: CRC must have rejected the mix.
			if log.MaxSeq != 3 && log.Gaps == 0 {
				t.Fatalf("seed %d: torn tail with maxSeq=%d gaps=%d", seed, log.MaxSeq, log.Gaps)
			}
			sawTorn = true
		case log.Torn == 0 && log.MaxSeq == 3:
			// Neither line survived: clean 3-record log.
			sawMissing = true
		default:
			t.Fatalf("seed %d: unclassifiable image: records=%d torn=%d gaps=%d maxSeq=%d",
				seed, len(log.Records), log.Torn, log.Gaps, log.MaxSeq)
		}
	}
	if !sawWhole || !sawTorn || !sawMissing {
		t.Fatalf("seed sweep did not exercise all outcomes: whole=%v torn=%v missing=%v",
			sawWhole, sawTorn, sawMissing)
	}
}

func TestAttachResumesSeq(t *testing.T) {
	const regionSize = 4096
	dev := testDevice(t, regionSize, false)
	if err := Format(dev, 0, regionSize); err != nil {
		t.Fatal(err)
	}
	r, _ := Attach(dev, 0, regionSize)
	for i := 0; i < 5; i++ {
		r.Record(&Record{Op: vfs.OpWrite})
	}
	r2, err := Attach(dev, 0, regionSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Record(&Record{Op: vfs.OpWrite}); got != 6 {
		t.Fatalf("resumed seq = %d, want 6", got)
	}
}

func TestWriteJSON(t *testing.T) {
	img := regionImage(t, 4, []Record{
		{Trace: 0xabc, Tenant: "gold", Op: vfs.OpWrite, Ino: 7, Off: 512, Len: 64},
	})
	log, err := DecodeBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"trace":"0000000000000abc"`, `"tenant":"gold"`, `"op":"write"`,
		`"flush_ns":`, `"kind":"flight_summary"`, `"max_seq":1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON output missing %s:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 2 {
		t.Fatalf("want 2 lines, got %d:\n%s", got, out)
	}
}

// TestRecordAllocs enforces the zero-allocation contract on the append
// path (it runs on the server's writer goroutine for every request).
func TestRecordAllocs(t *testing.T) {
	const regionSize = 8192
	dev := testDevice(t, regionSize, false)
	if err := Format(dev, 0, regionSize); err != nil {
		t.Fatal(err)
	}
	r, _ := Attach(dev, 0, regionSize)
	rec := Record{Trace: 1, Tenant: "gold", Op: vfs.OpWrite, Len: 4096}
	if n := testing.AllocsPerRun(200, func() { r.Record(&rec) }); n != 0 {
		t.Fatalf("Record allocates %v times per op", n)
	}
}
