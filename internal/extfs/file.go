package extfs

import (
	"encoding/binary"
	"io"
	"sync/atomic"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// --- per-inode block index: 10 direct, 1 indirect, 1 double-indirect ---

const (
	idxIndirect = 10
	idxDouble   = 11
)

// readPtr reads pointer slot of index block bn through the page cache.
func (fs *FS) readPtr(bn int64, slot int64) int64 {
	var b [8]byte
	fs.cache.Read(b[:], bn, int(slot*8))
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func (fs *FS) writePtr(bn int64, slot int64, val int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(val))
	fs.cache.Write(b[:], bn, int(slot*8), false)
}

// lookupBlock returns the data block for file block idx, 0 for a hole.
func (fs *FS) lookupBlock(r inodeRec, idx int64) int64 {
	switch {
	case idx < ptrsDirect:
		return r.Ptrs[idx]
	case idx < ptrsDirect+ptrsPerBlock:
		ind := r.Ptrs[idxIndirect]
		if ind == 0 {
			return 0
		}
		return fs.readPtr(ind, idx-ptrsDirect)
	default:
		rel := idx - ptrsDirect - ptrsPerBlock
		if rel >= ptrsPerBlock*ptrsPerBlock {
			return 0
		}
		dbl := r.Ptrs[idxDouble]
		if dbl == 0 {
			return 0
		}
		ind := fs.readPtr(dbl, rel/ptrsPerBlock)
		if ind == 0 {
			return 0
		}
		return fs.readPtr(ind, rel%ptrsPerBlock)
	}
}

// ensureBlock makes file block idx exist, updating r in place. It returns
// the block number and whether it was newly allocated.
func (fs *FS) ensureBlock(r *inodeRec, idx int64) (int64, bool, error) {
	alloc1 := func() (int64, error) {
		bs, err := fs.allocBlocks(1)
		if err != nil {
			return 0, err
		}
		return bs[0], nil
	}
	switch {
	case idx < ptrsDirect:
		if r.Ptrs[idx] != 0 {
			return r.Ptrs[idx], false, nil
		}
		bn, err := alloc1()
		if err != nil {
			return 0, false, err
		}
		r.Ptrs[idx] = bn
		return bn, true, nil
	case idx < ptrsDirect+ptrsPerBlock:
		if r.Ptrs[idxIndirect] == 0 {
			ind, err := alloc1()
			if err != nil {
				return 0, false, err
			}
			fs.cache.Write(fs.zero[:], ind, 0, true)
			r.Ptrs[idxIndirect] = ind
		}
		slot := idx - ptrsDirect
		if bn := fs.readPtr(r.Ptrs[idxIndirect], slot); bn != 0 {
			return bn, false, nil
		}
		bn, err := alloc1()
		if err != nil {
			return 0, false, err
		}
		fs.writePtr(r.Ptrs[idxIndirect], slot, bn)
		return bn, true, nil
	default:
		rel := idx - ptrsDirect - ptrsPerBlock
		if rel >= ptrsPerBlock*ptrsPerBlock {
			return 0, false, vfs.ErrNoSpace
		}
		if r.Ptrs[idxDouble] == 0 {
			dbl, err := alloc1()
			if err != nil {
				return 0, false, err
			}
			fs.cache.Write(fs.zero[:], dbl, 0, true)
			r.Ptrs[idxDouble] = dbl
		}
		ind := fs.readPtr(r.Ptrs[idxDouble], rel/ptrsPerBlock)
		if ind == 0 {
			var err error
			ind, err = alloc1()
			if err != nil {
				return 0, false, err
			}
			fs.cache.Write(fs.zero[:], ind, 0, true)
			fs.writePtr(r.Ptrs[idxDouble], rel/ptrsPerBlock, ind)
		}
		slot := rel % ptrsPerBlock
		if bn := fs.readPtr(ind, slot); bn != 0 {
			return bn, false, nil
		}
		bn, err := alloc1()
		if err != nil {
			return 0, false, err
		}
		fs.writePtr(ind, slot, bn)
		return bn, true, nil
	}
}

// fileBlocks collects every data and index block of the file.
func (fs *FS) fileBlocks(r inodeRec) (data, index []int64) {
	for i := int64(0); i < ptrsDirect; i++ {
		if r.Ptrs[i] != 0 {
			data = append(data, r.Ptrs[i])
		}
	}
	if ind := r.Ptrs[idxIndirect]; ind != 0 {
		index = append(index, ind)
		for s := int64(0); s < ptrsPerBlock; s++ {
			if bn := fs.readPtr(ind, s); bn != 0 {
				data = append(data, bn)
			}
		}
	}
	if dbl := r.Ptrs[idxDouble]; dbl != 0 {
		index = append(index, dbl)
		for s := int64(0); s < ptrsPerBlock; s++ {
			ind := fs.readPtr(dbl, s)
			if ind == 0 {
				continue
			}
			index = append(index, ind)
			for u := int64(0); u < ptrsPerBlock; u++ {
				if bn := fs.readPtr(ind, u); bn != 0 {
					data = append(data, bn)
				}
			}
		}
	}
	return data, index
}

// --- directories ---

type dentry struct {
	ino  int64
	typ  byte
	name string
}

func (fs *FS) dirScan(rec inodeRec, fn func(bn int64, off int, d dentry) bool) {
	blocks := (rec.Size + BlockSize - 1) / BlockSize
	var buf [dentrySize]byte
	for bi := int64(0); bi < blocks; bi++ {
		bn := fs.lookupBlock(rec, bi)
		if bn == 0 {
			continue
		}
		for s := 0; s < dentriesPerBl; s++ {
			fs.cache.Read(buf[:], bn, s*dentrySize)
			ino := int64(binary.LittleEndian.Uint64(buf[:8]))
			if ino == 0 {
				continue
			}
			n := int(buf[9])
			if n > maxNameLen {
				n = maxNameLen
			}
			d := dentry{ino: ino, typ: buf[8], name: string(buf[10 : 10+n])}
			if fn(bn, s*dentrySize, d) {
				return
			}
		}
	}
}

func (fs *FS) dirLookup(rec inodeRec, name string) (bn int64, off int, d dentry, ok bool) {
	fs.dirScan(rec, func(b int64, o int, e dentry) bool {
		if e.name == name {
			bn, off, d, ok = b, o, e, true
			return true
		}
		return false
	})
	return
}

func (fs *FS) dirAddEntry(dirIno int64, rec *inodeRec, d dentry) error {
	if len(d.name) > maxNameLen {
		return vfs.ErrNameTooLon
	}
	bn, off, err := fs.dirFreeSlot(rec)
	if err != nil {
		return err
	}
	fs.dirPutEntry(bn, off, d)
	return nil
}

// dirFreeSlot returns the first free dentry slot, extending the directory
// by one zeroed block when every slot is taken (rec's size grows with it).
func (fs *FS) dirFreeSlot(rec *inodeRec) (bn int64, off int, err error) {
	blocks := (rec.Size + BlockSize - 1) / BlockSize
	var probe [8]byte
	for bi := int64(0); bi < blocks; bi++ {
		bn := fs.lookupBlock(*rec, bi)
		if bn == 0 {
			continue
		}
		for s := 0; s < dentriesPerBl; s++ {
			fs.cache.Read(probe[:], bn, s*dentrySize)
			if binary.LittleEndian.Uint64(probe[:]) == 0 {
				return bn, s * dentrySize, nil
			}
		}
	}
	bn, _, err = fs.ensureBlock(rec, blocks)
	if err != nil {
		return 0, 0, err
	}
	fs.cache.Write(fs.zero[:], bn, 0, true)
	rec.Size = (blocks + 1) * BlockSize
	return bn, 0, nil
}

func (fs *FS) dirPutEntry(slotBn int64, slotOff int, d dentry) {
	var e [dentrySize]byte
	binary.LittleEndian.PutUint64(e[0:], uint64(d.ino))
	e[8] = d.typ
	e[9] = byte(len(d.name))
	copy(e[10:], d.name)
	fs.cache.Write(e[:], slotBn, slotOff, false)
}

func (fs *FS) dirRemoveEntry(bn int64, off int) {
	var z [8]byte
	fs.cache.Write(z[:], bn, off, false)
}

func (fs *FS) dirEmpty(rec inodeRec) bool {
	empty := true
	fs.dirScan(rec, func(int64, int, dentry) bool { empty = false; return true })
	return empty
}

// --- namespace operations (vfs.FileSystem) ---

func (fs *FS) resolveDir(parts []string) (int64, error) {
	cur := int64(rootIno)
	for _, name := range parts {
		rec := fs.readInode(cur)
		if rec.Type != typeDir {
			return 0, vfs.ErrNotDir
		}
		_, _, d, ok := fs.dirLookup(rec, name)
		if !ok {
			return 0, vfs.ErrNotExist
		}
		if d.typ != typeDir {
			return 0, vfs.ErrNotDir
		}
		cur = d.ino
	}
	return cur, nil
}

// Resolve returns the inode number at path.
func (fs *FS) Resolve(path string) (int64, error) {
	parts, err := vfs.SplitPath(nil, path)
	if err != nil {
		return 0, err
	}
	fs.nsMu.RLock()
	defer fs.nsMu.RUnlock()
	if len(parts) == 0 {
		return rootIno, nil
	}
	dir, err := fs.resolveDir(parts[:len(parts)-1])
	if err != nil {
		return 0, err
	}
	rec := fs.readInode(dir)
	_, _, d, ok := fs.dirLookup(rec, parts[len(parts)-1])
	if !ok {
		return 0, vfs.ErrNotExist
	}
	return d.ino, nil
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string) (vfs.File, error) {
	return fs.Open(path, vfs.OCreate|vfs.ORdwr)
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string, flags int) (vfs.File, error) {
	if err := fs.checkMounted(); err != nil {
		return nil, err
	}
	var buf [16]string
	dirParts, base, err := vfs.SplitDirBase(buf[:0], path)
	if err != nil {
		return nil, err
	}
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	dirIno, err := fs.resolveDir(dirParts)
	if err != nil {
		return nil, err
	}
	dirRec := fs.readInode(dirIno)
	_, _, d, ok := fs.dirLookup(dirRec, base)
	var ino int64
	switch {
	case ok && d.typ == typeDir:
		return nil, vfs.ErrIsDir
	case ok:
		ino = d.ino
	case flags&vfs.OCreate != 0:
		ino, err = fs.allocInode(typeFile)
		if err != nil {
			return nil, err
		}
		if err := fs.dirAddEntry(dirIno, &dirRec, dentry{ino: ino, typ: typeFile, name: base}); err != nil {
			fs.freeInode(ino)
			return nil, err
		}
		fs.writeInode(dirIno, dirRec)
	default:
		return nil, vfs.ErrNotExist
	}
	st := fs.state(ino)
	st.meta.Lock()
	st.refs++
	st.meta.Unlock()
	f := &File{fs: fs, ino: ino, flags: flags}
	if ok && flags&vfs.OTrunc != 0 {
		st.mu.Lock()
		err := f.truncateLocked(0)
		st.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	var buf [16]string
	dirParts, base, err := vfs.SplitDirBase(buf[:0], path)
	if err != nil {
		return err
	}
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	dirIno, err := fs.resolveDir(dirParts)
	if err != nil {
		return err
	}
	dirRec := fs.readInode(dirIno)
	if _, _, _, ok := fs.dirLookup(dirRec, base); ok {
		return vfs.ErrExist
	}
	ino, err := fs.allocInode(typeDir)
	if err != nil {
		return err
	}
	if err := fs.dirAddEntry(dirIno, &dirRec, dentry{ino: ino, typ: typeDir, name: base}); err != nil {
		fs.freeInode(ino)
		return err
	}
	fs.writeInode(dirIno, dirRec)
	return nil
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	var buf [16]string
	dirParts, base, err := vfs.SplitDirBase(buf[:0], path)
	if err != nil {
		return err
	}
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	dirIno, err := fs.resolveDir(dirParts)
	if err != nil {
		return err
	}
	dirRec := fs.readInode(dirIno)
	bn, off, d, ok := fs.dirLookup(dirRec, base)
	if !ok {
		return vfs.ErrNotExist
	}
	if d.typ != typeDir {
		return vfs.ErrNotDir
	}
	rec := fs.readInode(d.ino)
	if !fs.dirEmpty(rec) {
		return vfs.ErrNotEmpty
	}
	fs.dirRemoveEntry(bn, off)
	fs.reclaim(d.ino, rec)
	return nil
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	var buf [16]string
	dirParts, base, err := vfs.SplitDirBase(buf[:0], path)
	if err != nil {
		return err
	}
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	dirIno, err := fs.resolveDir(dirParts)
	if err != nil {
		return err
	}
	dirRec := fs.readInode(dirIno)
	bn, off, d, ok := fs.dirLookup(dirRec, base)
	if !ok {
		return vfs.ErrNotExist
	}
	if d.typ == typeDir {
		return vfs.ErrIsDir
	}
	fs.dirRemoveEntry(bn, off)
	fs.dropOrDefer(d.ino)
	return nil
}

func (fs *FS) dropOrDefer(ino int64) {
	st := fs.state(ino)
	st.meta.Lock()
	open := st.refs > 0
	if open {
		st.unlinked = true
	}
	st.meta.Unlock()
	if open {
		return
	}
	fs.reclaim(ino, fs.readInode(ino))
}

func (fs *FS) reclaim(ino int64, rec inodeRec) {
	data, index := fs.fileBlocks(rec)
	fs.releaseBlocks(append(data, index...))
	fs.freeInode(ino)
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(oldpath, newpath string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	var oldBuf, newBuf [16]string
	oldDirParts, oldBase, err := vfs.SplitDirBase(oldBuf[:0], oldpath)
	if err != nil {
		return err
	}
	newDirParts, newBase, err := vfs.SplitDirBase(newBuf[:0], newpath)
	if err != nil {
		return err
	}
	if len(newBase) > maxNameLen {
		return vfs.ErrNameTooLon
	}
	fs.nsMu.Lock()
	defer fs.nsMu.Unlock()
	oldDir, err := fs.resolveDir(oldDirParts)
	if err != nil {
		return err
	}
	newDir, err := fs.resolveDir(newDirParts)
	if err != nil {
		return err
	}
	oldDirRec := fs.readInode(oldDir)
	obn, ooff, d, ok := fs.dirLookup(oldDirRec, oldBase)
	if !ok {
		return vfs.ErrNotExist
	}
	if oldDir == newDir && oldBase == newBase {
		return nil // rename to self is a no-op
	}
	newDirRec := fs.readInode(newDir)
	if newDir == oldDir {
		newDirRec = oldDirRec
	}
	dbn, doff, destD, exists := fs.dirLookup(newDirRec, newBase)
	if exists && destD.typ == typeDir {
		return vfs.ErrIsDir
	}
	// Take the new slot before removing anything, so that a full
	// directory on a full device fails the rename with both names intact.
	// A rename that frees a slot in the new directory cannot need one, and
	// takes it after the removals, as first fit would.
	slotBn := int64(-1)
	var slotOff int
	if !exists && oldDir != newDir {
		if slotBn, slotOff, err = fs.dirFreeSlot(&newDirRec); err != nil {
			return err
		}
	}
	if exists {
		fs.dirRemoveEntry(dbn, doff)
		fs.dropOrDefer(destD.ino)
	}
	fs.dirRemoveEntry(obn, ooff)
	if slotBn < 0 {
		slotBn, slotOff, _ = fs.dirFreeSlot(&newDirRec) // a removal freed a slot: no extension
	}
	fs.dirPutEntry(slotBn, slotOff, dentry{ino: d.ino, typ: d.typ, name: newBase})
	fs.writeInode(newDir, newDirRec)
	return nil
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	if err := fs.checkMounted(); err != nil {
		return vfs.FileInfo{}, err
	}
	ino, err := fs.Resolve(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	parts, _ := vfs.SplitPath(nil, path)
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	rec := fs.readInode(ino)
	return vfs.FileInfo{Name: name, Size: rec.Size, IsDir: rec.Type == typeDir}, nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	if err := fs.checkMounted(); err != nil {
		return nil, err
	}
	ino, err := fs.Resolve(path)
	if err != nil {
		return nil, err
	}
	fs.nsMu.RLock()
	defer fs.nsMu.RUnlock()
	rec := fs.readInode(ino)
	if rec.Type != typeDir {
		return nil, vfs.ErrNotDir
	}
	var out []vfs.DirEntry
	fs.dirScan(rec, func(_ int64, _ int, d dentry) bool {
		out = append(out, vfs.DirEntry{Name: d.name, IsDir: d.typ == typeDir})
		return false
	})
	return out, nil
}

// Sync implements vfs.FileSystem: flush all dirty data pages, then the
// metadata (journaled under EXT4).
func (fs *FS) Sync() error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cache.FlushAll()
	fs.journalMetadata()
	fs.bdev.Flush()
	return nil
}

// Unmount implements vfs.FileSystem.
func (fs *FS) Unmount() error {
	if fs.unmounted.Swap(true) {
		return vfs.ErrUnmounted
	}
	fs.cache.FlushAll()
	fs.journalMetadata()
	fs.bdev.Flush()
	return nil
}

// --- file handle ---

// File is an open extfs file. It implements vfs.File.
type File struct {
	fs     *FS
	ino    int64
	flags  int
	closed atomic.Bool
}

func (f *File) checkOpen() error {
	if f.closed.Load() {
		return vfs.ErrClosed
	}
	return f.fs.checkMounted()
}

func (f *File) st() *inodeState { return f.fs.state(f.ino) }

// Size implements vfs.File.
func (f *File) Size() int64 {
	st := f.st()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return f.fs.readInode(f.ino).Size
}

// ReadAt implements vfs.File: through the page cache (double copy on a
// miss), or directly from NVMM in DAX mode (single copy).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	st := f.st()
	st.mu.RLock()
	defer st.mu.RUnlock()
	rec := f.fs.readInode(f.ino)
	if off >= rec.Size {
		// io.ReaderAt contract: reads at or past EOF report io.EOF.
		return 0, io.EOF
	}
	n := len(p)
	var eof error
	if off+int64(n) > rec.Size {
		n = int(rec.Size - off)
		eof = io.EOF
	}
	read := 0
	for read < n {
		pos := off + int64(read)
		idx := pos / BlockSize
		bo := int(pos % BlockSize)
		chunk := BlockSize - bo
		if chunk > n-read {
			chunk = n - read
		}
		bn := f.fs.lookupBlock(rec, idx)
		dst := p[read : read+chunk]
		switch {
		case bn == 0:
			for i := range dst {
				dst[i] = 0
			}
		case f.fs.opts.DAX:
			f.fs.nv.Read(dst, bn*BlockSize+int64(bo))
			f.fs.col.Copy(obs.CopyReadOut, chunk)
		default:
			f.fs.cache.Read(dst, bn, bo)
			f.fs.col.Copy(obs.CopyReadOut, chunk)
		}
		read += chunk
	}
	return n, eof
}

// WriteAt implements vfs.File: into the page cache (dirty pages written
// back at fsync/sync), or directly to NVMM in DAX mode.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	st := f.st()
	st.mu.Lock()
	defer st.mu.Unlock()
	rec := f.fs.readInode(f.ino)
	if f.flags&vfs.OAppend != 0 {
		off = rec.Size
	}
	written := 0
	for written < len(p) {
		pos := off + int64(written)
		idx := pos / BlockSize
		bo := int(pos % BlockSize)
		chunk := BlockSize - bo
		if chunk > len(p)-written {
			chunk = len(p) - written
		}
		bn, created, err := f.fs.ensureBlock(&rec, idx)
		if err != nil {
			f.fs.writeInode(f.ino, rec)
			return written, err
		}
		src := p[written : written+chunk]
		if f.fs.opts.DAX {
			if created {
				// Zero the rest of a fresh block directly on NVMM.
				f.fs.nv.Write(f.fs.zero[:], bn*BlockSize)
			}
			f.fs.nv.WriteNT(src, bn*BlockSize+int64(bo))
		} else {
			f.fs.cache.Write(src, bn, bo, created)
		}
		f.fs.col.Copy(obs.CopyUserIn, chunk)
		written += chunk
	}
	if off+int64(len(p)) > rec.Size {
		rec.Size = off + int64(len(p))
	}
	rec.Mtime = time.Now().UnixNano()
	f.fs.writeInode(f.ino, rec)
	if f.flags&vfs.OSync != 0 {
		f.fsyncLocked(rec)
	}
	return written, nil
}

// fsyncLocked flushes the file's data pages and journals the metadata.
func (f *File) fsyncLocked(rec inodeRec) {
	if !f.fs.opts.DAX {
		blocks := (rec.Size + BlockSize - 1) / BlockSize
		for bi := int64(0); bi < blocks; bi++ {
			if bn := f.fs.lookupBlock(rec, bi); bn != 0 {
				f.fs.cache.FlushPage(bn)
			}
		}
	} else {
		f.fs.nv.Fence()
	}
	f.fs.journalMetadata()
	f.fs.bdev.Flush()
}

// Fsync implements vfs.File.
func (f *File) Fsync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	st := f.st()
	st.mu.Lock()
	defer st.mu.Unlock()
	f.fsyncLocked(f.fs.readInode(f.ino))
	return nil
}

// Truncate implements vfs.File.
func (f *File) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if size < 0 {
		return vfs.ErrInvalid
	}
	st := f.st()
	st.mu.Lock()
	defer st.mu.Unlock()
	return f.truncateLocked(size)
}

func (f *File) truncateLocked(size int64) error {
	rec := f.fs.readInode(f.ino)
	if size == rec.Size {
		return nil
	}
	if size < rec.Size {
		// Free all blocks beyond the boundary (simple full-walk version).
		keep := (size + BlockSize - 1) / BlockSize
		var freed []int64
		blocks := (rec.Size + BlockSize - 1) / BlockSize
		for bi := keep; bi < blocks; bi++ {
			if bn := f.fs.lookupBlock(rec, bi); bn != 0 {
				freed = append(freed, bn)
				f.clearPtr(&rec, bi)
			}
		}
		f.fs.releaseBlocks(freed)
		// Zero the tail of the boundary block.
		if size%BlockSize != 0 {
			if bn := f.fs.lookupBlock(rec, size/BlockSize); bn != 0 {
				tail := int(BlockSize - size%BlockSize)
				if f.fs.opts.DAX {
					f.fs.nv.Write(f.fs.zero[:tail], bn*BlockSize+size%BlockSize)
					f.fs.nv.Flush(bn*BlockSize+size%BlockSize, tail)
				} else {
					f.fs.cache.Write(f.fs.zero[:tail], bn, int(size%BlockSize), false)
				}
			}
		}
	}
	rec.Size = size
	rec.Mtime = time.Now().UnixNano()
	f.fs.writeInode(f.ino, rec)
	return nil
}

// clearPtr zeroes the pointer to file block bi.
func (f *File) clearPtr(rec *inodeRec, bi int64) {
	switch {
	case bi < ptrsDirect:
		rec.Ptrs[bi] = 0
	case bi < ptrsDirect+ptrsPerBlock:
		if ind := rec.Ptrs[idxIndirect]; ind != 0 {
			f.fs.writePtr(ind, bi-ptrsDirect, 0)
		}
	default:
		rel := bi - ptrsDirect - ptrsPerBlock
		if dbl := rec.Ptrs[idxDouble]; dbl != 0 {
			if ind := f.fs.readPtr(dbl, rel/ptrsPerBlock); ind != 0 {
				f.fs.writePtr(ind, rel%ptrsPerBlock, 0)
			}
		}
	}
}

// Close implements vfs.File. A second Close returns ErrClosed without
// touching the refcount.
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return vfs.ErrClosed
	}
	st := f.st()
	st.meta.Lock()
	st.refs--
	reclaim := st.refs == 0 && st.unlinked
	st.meta.Unlock()
	if reclaim {
		// Reclaim under the inode lock so a ReadAt that raced Close and
		// already passed its closed-check finishes before the blocks it is
		// reading are released for reuse.
		st.mu.Lock()
		defer st.mu.Unlock()
		f.fs.reclaim(f.ino, f.fs.readInode(f.ino))
	}
	return nil
}
