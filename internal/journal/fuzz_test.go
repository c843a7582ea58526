package journal

import (
	"encoding/binary"
	"strings"
	"testing"

	"hinfs/internal/nvmm"
)

// putEntry writes one valid entry line at device offset at, laid out as
// writeEntry lays it out.
func putEntry(dev *nvmm.Device, at int64, txid uint32, kind byte, addr uint64, n byte, seq uint64) {
	var e [EntrySize]byte
	binary.LittleEndian.PutUint32(e[offTxid:], txid)
	binary.LittleEndian.PutUint64(e[offAddr:], addr)
	e[offLen] = n
	e[offKind] = kind
	binary.LittleEndian.PutUint64(e[offSeq:], seq)
	e[offValid] = 1
	dev.Write(e[:], at)
}

// TestRecoverRejectsWildEntry: an uncommitted entry whose range leaves the
// device or lands in the log area makes Recover return an error — and write
// nothing — instead of applying it. The same entry under a commit record is
// never applied, so it is no error.
func TestRecoverRejectsWildEntry(t *testing.T) {
	const devSize = 4 << 20
	for _, c := range []struct {
		name string
		kind byte
		addr uint64
		n    byte
		want string
	}{
		{"past the device", kindUndo, 1 << 40, 8, "outside"},
		{"wrapping", kindBitmap, ^uint64(3), 8, "outside"},
		{"across the device end", kindUndo, devSize - 4, 8, "outside"},
		{"into the log", kindUndo, areaBase + 100, 8, "overlaps the log"},
		{"undo too long", kindUndo, 128 * 4096, MaxUndoBytes + 1, "length"},
		{"bitmap not a word", kindBitmap, 128 * 4096, 4, "length"},
	} {
		for _, committed := range []bool{false, true} {
			dev := testDev(t)
			putEntry(dev, areaBase+64, 7, c.kind, c.addr, c.n, 1)
			if committed {
				putEntry(dev, areaBase+128, 7, kindCommit, 0, 0, 2)
			}
			before := dev.Stats()
			rolled, err := Recover(dev, areaBase, areaSize)
			if committed {
				if err != nil || rolled != 0 {
					t.Fatalf("%s, committed: (%d, %v), want (0, nil)", c.name, rolled, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: (%d, %v), want an error naming %q", c.name, rolled, err, c.want)
			}
			if after := dev.Stats(); after.BytesWritten != before.BytesWritten || after.Flushes != before.Flushes {
				t.Fatalf("%s: the rejecting Recover wrote to the device", c.name)
			}
		}
	}
}

// TestRecoverUnstampedReadsEveryLine: an area written before blocks carried
// headers uses line 0 of a block as an entry slot. RecoverUnstamped rolls an
// open transaction's entry there back; Recover reads the same line as a
// header and rolls back nothing.
func TestRecoverUnstampedReadsEveryLine(t *testing.T) {
	const addr = 128 * 4096
	for _, c := range []struct {
		recover func(*nvmm.Device, int64, int64) (int, error)
		want    int
	}{{RecoverUnstamped, 1}, {Recover, 0}} {
		dev := testDev(t)
		dev.WriteNT([]byte("new-new-"), addr)
		putEntry(dev, areaBase+4096, 3, kindUndo, addr, 8, 5)
		dev.Write([]byte("old-old-"), areaBase+4096+offData)
		dev.Flush(areaBase, areaSize)
		rolled, err := c.recover(dev, areaBase, areaSize)
		if err != nil || rolled != c.want {
			t.Fatalf("rolled back (%d, %v), want (%d, nil)", rolled, err, c.want)
		}
		got := make([]byte, 8)
		dev.Read(got, addr)
		if want := map[int]string{0: "new-new-", 1: "old-old-"}[c.want]; string(got) != want {
			t.Fatalf("recovered %q, want %q", got, want)
		}
	}
}

// FuzzRecover feeds arbitrary bytes to Recover as the heads of a log area's
// two one-block halves, read with and without block headers: the first half
// of the input lands at line 0 of block 0 (its header, then entries), the
// rest at line 0 of block 1, at most 4 lines each, so inputs stay small
// enough to minimize. The seeds are heads of real logs — open and committed
// transactions, a rotation back into a stamped half — and a wild entry.
// Recover must return a count or an error, never panic or hang; an error
// must leave the device unwritten, and after a success a second Recover
// must roll back nothing.
func FuzzRecover(f *testing.F) {
	const (
		base    = 4096
		size    = 2 * 4096
		devSize = 64 << 10
		data    = base + size
		maxHead = 4 * EntrySize
	)
	heads := func(build func(j *Journal, dev *nvmm.Device)) []byte {
		dev, err := nvmm.New(nvmm.Config{Size: devSize})
		if err != nil {
			f.Fatal(err)
		}
		j, err := NewLanes(dev, base, size, 1)
		if err != nil {
			f.Fatal(err)
		}
		build(j, dev)
		b := make([]byte, 2*maxHead)
		dev.Read(b[:maxHead], base)
		dev.Read(b[maxHead:], base+4096)
		return b
	}
	f.Add(heads(func(j *Journal, dev *nvmm.Device) {
		tx := j.Begin()
		tx.LogRange(data, 100)
		tx.LogBitmap(data+128, 0x0f)
		j.Begin().LogRange(data+256, 8) // left open
		tx.Commit()
	}), true)
	f.Add(heads(func(j *Journal, dev *nvmm.Device) {
		for i := 0; i < 70; i++ { // back into the first half, stamped
			tx := j.Begin()
			tx.LogRange(data+int64(i%32)*64, 8)
			tx.Commit()
		}
		j.Begin().LogRange(data, 100) // left open
	}), true)
	f.Add(heads(func(j *Journal, dev *nvmm.Device) {
		putEntry(dev, base+64, 1, kindUndo, 1<<40, 8, 1)
		putEntry(dev, base+4096, 2, kindBitmap, data, 8, 2)
	}), false)

	dev, err := nvmm.New(nvmm.Config{Size: devSize})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte, stamped bool) {
		if len(in) > 2*maxHead {
			in = in[:2*maxHead]
		}
		dev.Write(zeroBlock[:], base)
		dev.Write(zeroBlock[:], base+4096)
		dev.Write(in[:len(in)/2], base)
		dev.Write(in[len(in)/2:], base+4096)
		rec := Recover
		if !stamped {
			rec = RecoverUnstamped
		}
		before := dev.Stats()
		if _, err := rec(dev, base, size); err != nil {
			if after := dev.Stats(); after.BytesWritten != before.BytesWritten {
				t.Fatalf("Recover failed (%v) after writing %d bytes", err, after.BytesWritten-before.BytesWritten)
			}
			return
		}
		if rolled, err := rec(dev, base, size); err != nil || rolled != 0 {
			t.Fatalf("second Recover: (%d, %v), want (0, nil)", rolled, err)
		}
	})
}
