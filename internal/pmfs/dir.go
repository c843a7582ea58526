package pmfs

import (
	"hinfs/internal/journal"
	"hinfs/internal/vfs"
)

// Directories are regular files whose data blocks hold fixed-size 64 B
// dentries (one cacheline each, so a dentry update journals cleanly).
// A dentry with ino 0 is a free slot.

const dentriesPerBlock = BlockSize / DentrySize

type dentry struct {
	ino  Ino
	typ  byte
	name string
}

func decodeDentry(b []byte) dentry {
	ino := Ino(le64(b[deIno:]))
	if ino == 0 {
		return dentry{}
	}
	n := int(b[deNameLen])
	if n > MaxNameLen {
		n = MaxNameLen
	}
	return dentry{ino: ino, typ: b[deType], name: string(b[deName : deName+n])}
}

func encodeDentry(d dentry) [DentrySize]byte {
	var b [DentrySize]byte
	putLE64(b[deIno:], uint64(d.ino))
	b[deType] = d.typ
	b[deNameLen] = byte(len(d.name))
	copy(b[deName:], d.name)
	return b
}

// dirScan iterates the dentries of directory dir, calling fn with each
// in-use entry's device address and contents. fn returns true to stop.
// The caller holds the directory's inode lock.
func (fs *FS) dirScan(rec inodeRec, fn func(addr int64, d dentry) bool) {
	blocks := (rec.Size + BlockSize - 1) / BlockSize
	var buf [DentrySize]byte
	for bi := int64(0); bi < blocks; bi++ {
		bn := fs.treeLookup(rec, bi)
		if bn == 0 {
			continue
		}
		for s := int64(0); s < dentriesPerBlock; s++ {
			addr := blockAddr(bn) + s*DentrySize
			fs.dev.Read(buf[:], addr)
			d := decodeDentry(buf[:])
			if d.ino == 0 {
				continue
			}
			if fn(addr, d) {
				return
			}
		}
	}
}

// dirLookup finds name in the directory, returning its dentry address. It
// runs for every component of every path, over every entry in front of the
// match, so it compares the name bytes in place and builds a dentry only for
// the match (around name itself — nothing is allocated).
func (fs *FS) dirLookup(rec inodeRec, name string) (addr int64, d dentry, ok bool) {
	if len(name) > MaxNameLen {
		return 0, dentry{}, false
	}
	blocks := (rec.Size + BlockSize - 1) / BlockSize
	var buf [DentrySize]byte
	for bi := int64(0); bi < blocks; bi++ {
		bn := fs.treeLookup(rec, bi)
		if bn == 0 {
			continue
		}
		for s := int64(0); s < dentriesPerBlock; s++ {
			a := blockAddr(bn) + s*DentrySize
			fs.dev.Read(buf[:], a)
			ino := Ino(le64(buf[deIno:]))
			if ino == 0 || int(buf[deNameLen]) != len(name) || string(buf[deName:deName+len(name)]) != name {
				continue
			}
			return a, dentry{ino: ino, typ: buf[deType], name: name}, true
		}
	}
	return 0, dentry{}, false
}

// dirAddEntry inserts a dentry, reusing a free slot or extending the
// directory by one block. It journals the slot and persists the write.
func (fs *FS) dirAddEntry(tx *journal.Tx, dirIno Ino, rec *inodeRec, d dentry) error {
	if len(d.name) > MaxNameLen {
		return vfs.ErrNameTooLon
	}
	// Find a free slot in existing blocks.
	blocks := (rec.Size + BlockSize - 1) / BlockSize
	var buf [DentrySize]byte
	var slotAddr int64 = -1
	for bi := int64(0); bi < blocks && slotAddr < 0; bi++ {
		bn := fs.treeLookup(*rec, bi)
		if bn == 0 {
			continue
		}
		for s := int64(0); s < dentriesPerBlock; s++ {
			addr := blockAddr(bn) + s*DentrySize
			fs.dev.Read(buf[:8], addr)
			if le64(buf[:8]) == 0 {
				slotAddr = addr
				break
			}
		}
	}
	if slotAddr < 0 {
		bn, _, err := fs.treeEnsure(tx, rec, blocks)
		if err != nil {
			return err
		}
		rec.Size = (blocks + 1) * BlockSize
		slotAddr = blockAddr(bn)
	}
	e := encodeDentry(d)
	tx.LogRange(slotAddr, DentrySize)
	fs.dev.Write(e[:], slotAddr)
	fs.dev.Flush(slotAddr, DentrySize)
	fs.dev.Fence()
	return nil
}

// dirRemoveEntry clears the dentry at addr.
func (fs *FS) dirRemoveEntry(tx *journal.Tx, addr int64) {
	tx.LogRange(addr, 8)
	var zero [8]byte
	fs.dev.Write(zero[:], addr)
	fs.dev.Flush(addr, 8)
	fs.dev.Fence()
}

// dirEmpty reports whether the directory has no entries.
func (fs *FS) dirEmpty(rec inodeRec) bool {
	empty := true
	fs.dirScan(rec, func(int64, dentry) bool {
		empty = false
		return true
	})
	return empty
}
