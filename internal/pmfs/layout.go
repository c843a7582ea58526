// Package pmfs implements a PMFS-like direct-access file system on an
// emulated NVMM device. It serves two roles in this repository: it is the
// PMFS baseline of the paper's evaluation, and it is the persistent
// substrate on which HiNFS (internal/core) layers its DRAM write buffer.
//
// The on-device format is byte-serialized into the NVMM device so that
// crash/recovery behaviour is real: mount re-parses the image, and the
// journal rolls back torn metadata updates.
//
// Layout (4 KB blocks, absolute block numbers):
//
//	block 0                superblock
//	blocks 1..J            metadata undo journal (internal/journal)
//	blocks J+1..I          inode table (128 B inodes)
//	blocks I+1..B          block allocation bitmap (1 bit per device block)
//	blocks B+1..F          flight-recorder ring, optional (internal/obs/flight)
//	blocks F+1..end        data blocks
//
// File data is indexed by a per-inode B-tree of 512-ary index blocks, as
// in PMFS, except at the bottom: height 0 means the inode itself holds up
// to four data block pointers (the root pointer and three direct words), so
// a file of at most 16 KiB owns no index block; height h>0 means the root
// is an index block whose subtrees cover 512^(h-1) blocks each.
package pmfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hinfs/internal/cacheline"
	"hinfs/internal/nvmm"
)

// BlockSize is the file-system block size.
const BlockSize = cacheline.BlockSize

// Magic identifies a formatted device.
const Magic = 0x48694e4653_2016 // "HiNFS" 2016

// formatVersion is the format version Mkfs writes. Images formatted before
// the superblock carried one read back version 0 and no feature bits;
// version 1 added incompatDirectPtrs, version 2 incompatJournalGen.
const formatVersion = 2

// Incompatible format features: a mount that does not know a set bit
// refuses the image, since it would misread it.
const (
	// incompatDirectPtrs: a height-0 inode addresses file blocks 0-3 through
	// its root pointer and three direct words. A version-0 image never set
	// the direct words, so its single-block inodes are valid under it.
	incompatDirectPtrs = 1 << 0
	// incompatJournalGen: line 0 of every journal block is a generation
	// header, and a committed transaction's entries stay valid in the log
	// until a rotation stamps their half (internal/journal). An image
	// without it is recovered under the old rule — every line an entry,
	// live while its valid byte is set — and gets the bit at mount.
	incompatJournalGen = 1 << 1

	incompatKnown = incompatDirectPtrs | incompatJournalGen
)

// ErrIncompatFormat is returned by Mount for an image that sets an
// incompatible feature bit this code does not know.
var ErrIncompatFormat = errors.New("pmfs: unknown incompatible format feature")

// InodeSize is the on-device inode record size.
const InodeSize = 128

// MaxNameLen is the maximum file name length storable in a 64 B dentry.
const MaxNameLen = 54

// DentrySize is the on-device directory entry size (one cacheline).
const DentrySize = cacheline.Size

// ptrsPerBlock is the fan-out of one index block (512 8-byte pointers).
const ptrsPerBlock = BlockSize / 8

// Ino is an inode number. Ino 0 is invalid; ino 1 is the root directory.
type Ino uint64

// RootIno is the root directory inode.
const RootIno Ino = 1

// Inode types.
const (
	typeFree = 0
	typeFile = 1
	typeDir  = 2
)

// Superblock field offsets within block 0.
const (
	sbMagic        = 0
	sbSize         = 8
	sbJournalStart = 16 // byte offset
	sbJournalSize  = 24 // bytes
	sbInodeStart   = 32 // byte offset of inode table
	sbMaxInodes    = 40
	sbBitmapStart  = 48 // byte offset of block bitmap
	sbBitmapBlocks = 56
	sbDataStart    = 64 // first data block number
	sbTotalBlocks  = 72
	sbCleanUnmount = 80 // 1 if cleanly unmounted
	sbFlightStart  = 88 // byte offset of flight-recorder region (0 = none)
	sbFlightSize   = 96 // bytes
	sbVersion      = 104
	sbIncompat     = 112 // incompatible feature bits
	sbHeaderEnd    = 120
)

// Inode record field offsets.
const (
	inoType   = 0  // byte
	inoHeight = 1  // byte
	inoLinks  = 4  // uint32
	inoSize   = 8  // uint64
	inoRoot   = 16 // uint64 block number (0 = none)
	inoBlocks = 24 // uint64 allocated data blocks
	inoMtime  = 32 // uint64 unix nanos
	inoDirect = 40 // 3 × uint64: data blocks of file blocks 1-3 at height 0
	inoLine   = 64 // the record's first cacheline: every field above
)

// directPtrs is the number of file blocks a height-0 inode addresses: block
// 0 through the root pointer, blocks 1-3 through the direct words.
const directPtrs = 4

// Dentry record field offsets (64 B).
const (
	deIno     = 0  // uint64, 0 = free slot
	deType    = 8  // byte
	deNameLen = 9  // byte
	deName    = 10 // up to 54 bytes
)

// Options configures Mkfs (format parameters) and, via MountOpts, the
// runtime concurrency knobs — lane/shard counts are DRAM-only structures,
// not persisted, so any image may be remounted with different values.
type Options struct {
	// JournalBlocks is the size of the undo journal area (default 1024
	// blocks = 4 MB; the area is split into independent lanes of two
	// ping-pong halves each, see internal/journal).
	JournalBlocks int64
	// MaxInodes is the inode table capacity (default 65536).
	MaxInodes int64
	// JournalLanes is the number of independent journal lanes (0 =
	// journal.DefaultLanes). Runtime knob, not persisted.
	JournalLanes int
	// AllocShards is the number of block-allocator shards (0 =
	// DefaultAllocShards). Runtime knob, not persisted.
	AllocShards int
	// SerialNamespace routes every namespace operation through one global
	// RWMutex, recreating the pre-sharding metadata path. It exists as the
	// measured baseline for the metascale figure — never set it otherwise.
	SerialNamespace bool
	// FlightBlocks reserves a flight-recorder region of this many blocks
	// between the bitmap and the data area (internal/obs/flight). 0 means
	// no region: images formatted before the recorder existed read back
	// with zeroed flight fields and mount exactly as before.
	FlightBlocks int64
}

func (o *Options) fill() {
	if o.JournalBlocks == 0 {
		o.JournalBlocks = 1024
	}
	if o.MaxInodes == 0 {
		o.MaxInodes = 65536
	}
}

// layout holds the parsed superblock geometry.
type layout struct {
	size         int64
	journalStart int64
	journalSize  int64
	inodeStart   int64
	maxInodes    int64
	bitmapStart  int64
	bitmapBlocks int64
	flightStart  int64 // byte offset of flight region (0 = none)
	flightSize   int64 // bytes
	dataStart    int64 // first data block number
	totalBlocks  int64
	incompat     uint64 // incompatible feature bits the image carries
}

func computeLayout(size int64, opts Options) (layout, error) {
	totalBlocks := size / BlockSize
	var l layout
	l.size = size
	l.totalBlocks = totalBlocks
	l.journalStart = BlockSize // block 1
	l.journalSize = opts.JournalBlocks * BlockSize
	l.inodeStart = l.journalStart + l.journalSize
	l.maxInodes = opts.MaxInodes
	inodeBytes := opts.MaxInodes * InodeSize
	inodeBlocks := (inodeBytes + BlockSize - 1) / BlockSize
	l.bitmapStart = l.inodeStart + inodeBlocks*BlockSize
	bitmapBytes := (totalBlocks + 7) / 8
	l.bitmapBlocks = (bitmapBytes + BlockSize - 1) / BlockSize
	if opts.FlightBlocks > 0 {
		l.flightStart = l.bitmapStart + l.bitmapBlocks*BlockSize
		l.flightSize = opts.FlightBlocks * BlockSize
	}
	l.dataStart = l.bitmapStart/BlockSize + l.bitmapBlocks + opts.FlightBlocks
	if l.dataStart >= totalBlocks {
		return l, fmt.Errorf("pmfs: device too small (%d bytes) for metadata", size)
	}
	return l, nil
}

func (l layout) writeSuper(dev *nvmm.Device) {
	var b [BlockSize]byte
	put := binary.LittleEndian.PutUint64
	put(b[sbMagic:], Magic)
	put(b[sbSize:], uint64(l.size))
	put(b[sbJournalStart:], uint64(l.journalStart))
	put(b[sbJournalSize:], uint64(l.journalSize))
	put(b[sbInodeStart:], uint64(l.inodeStart))
	put(b[sbMaxInodes:], uint64(l.maxInodes))
	put(b[sbBitmapStart:], uint64(l.bitmapStart))
	put(b[sbBitmapBlocks:], uint64(l.bitmapBlocks))
	put(b[sbDataStart:], uint64(l.dataStart))
	put(b[sbTotalBlocks:], uint64(l.totalBlocks))
	put(b[sbFlightStart:], uint64(l.flightStart))
	put(b[sbFlightSize:], uint64(l.flightSize))
	put(b[sbVersion:], formatVersion)
	put(b[sbIncompat:], incompatKnown)
	dev.Write(b[:], 0)
	dev.Flush(0, BlockSize)
	dev.Fence()
}

// markFormat stamps the superblock with this code's format version and
// feature bits. Mount calls it on an older image once recovery has zeroed
// the journal, before the first transaction logs under the new rules.
func markFormat(dev *nvmm.Device) {
	var b [sbHeaderEnd - sbVersion]byte
	binary.LittleEndian.PutUint64(b[:], formatVersion)
	binary.LittleEndian.PutUint64(b[sbIncompat-sbVersion:], incompatKnown)
	dev.Write(b[:], sbVersion)
	dev.Flush(sbVersion, len(b))
	dev.Fence()
}

func readLayout(dev *nvmm.Device) (layout, error) {
	var b [sbHeaderEnd]byte
	dev.Read(b[:], 0)
	get := binary.LittleEndian.Uint64
	if get(b[sbMagic:]) != Magic {
		return layout{}, fmt.Errorf("pmfs: bad magic: device not formatted")
	}
	if unknown := get(b[sbIncompat:]) &^ incompatKnown; unknown != 0 {
		return layout{}, fmt.Errorf("%w: %#x (format version %d)", ErrIncompatFormat, unknown, get(b[sbVersion:]))
	}
	l := layout{
		size:         int64(get(b[sbSize:])),
		journalStart: int64(get(b[sbJournalStart:])),
		journalSize:  int64(get(b[sbJournalSize:])),
		inodeStart:   int64(get(b[sbInodeStart:])),
		maxInodes:    int64(get(b[sbMaxInodes:])),
		bitmapStart:  int64(get(b[sbBitmapStart:])),
		bitmapBlocks: int64(get(b[sbBitmapBlocks:])),
		dataStart:    int64(get(b[sbDataStart:])),
		totalBlocks:  int64(get(b[sbTotalBlocks:])),
		flightStart:  int64(get(b[sbFlightStart:])),
		flightSize:   int64(get(b[sbFlightSize:])),
		incompat:     get(b[sbIncompat:]),
	}
	if l.size != dev.Size() {
		return layout{}, fmt.Errorf("pmfs: superblock size %d != device size %d", l.size, dev.Size())
	}
	return l, nil
}

// inodeAddr returns the device byte offset of an inode record.
func (l layout) inodeAddr(ino Ino) int64 {
	return l.inodeStart + int64(ino)*InodeSize
}

// blockAddr returns the device byte offset of a block number.
func blockAddr(bn int64) int64 { return bn * BlockSize }
