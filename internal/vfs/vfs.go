// Package vfs defines the file-system interface shared by every system in
// this repository: HiNFS and its variants, the PMFS baseline, EXT4-DAX, and
// the EXT2/EXT4-on-NVMMBD baselines. Workload generators, the benchmark
// harness, the example applications, the CLI tools and the multi-tenant
// server all program against these interfaces, so any system can be swapped
// under any workload.
//
// The surface is capability-based: FileSystem composes a small set of core
// interfaces (Opener, Namespace, Syncer), and optional capabilities —
// memory-mapped I/O, decorated-handle unwrapping — are discovered by
// interface assertion (FileAs, HasBlockMmap) rather than demanded of every
// backend. A front-end that only lists directories can depend on Namespace
// alone; the server mounts anything that satisfies FileSystem and probes
// the rest.
package vfs

import (
	"errors"
	"strings"
)

// Open flags. They mirror the POSIX flags the paper's write-path policy
// depends on: O_SYNC marks every write on the handle eager-persistent.
const (
	ORdonly = 1 << iota
	OWronly
	ORdwr
	OCreate
	OTrunc
	OAppend
	OSync
)

// Common errors returned by all file systems.
var (
	ErrNotExist   = errors.New("vfs: file does not exist")
	ErrExist      = errors.New("vfs: file already exists")
	ErrIsDir      = errors.New("vfs: is a directory")
	ErrNotDir     = errors.New("vfs: not a directory")
	ErrNotEmpty   = errors.New("vfs: directory not empty")
	ErrNoSpace    = errors.New("vfs: no space left on device")
	ErrClosed     = errors.New("vfs: file handle closed")
	ErrReadOnly   = errors.New("vfs: handle not open for writing")
	ErrWriteOnly  = errors.New("vfs: handle not open for reading")
	ErrInvalid    = errors.New("vfs: invalid argument")
	ErrNameTooLon = errors.New("vfs: name too long")
	ErrUnmounted  = errors.New("vfs: file system unmounted")
)

// Path-shape limits. Individual file systems may impose tighter per-name
// limits (PMFS dentries hold 54 bytes); these bound what path *parsing*
// will accept, so adversarial inputs from untrusted clients — the server
// feeds wire paths straight into SplitPath — are rejected before any
// namespace walk begins.
const (
	// MaxPathLen bounds the byte length of a whole path.
	MaxPathLen = 4096
	// MaxPathComponents bounds the directory depth of a path.
	MaxPathComponents = 255
	// MaxComponentLen bounds one path component's byte length.
	MaxComponentLen = 255
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
	// Blocks is the number of data blocks allocated on the device.
	Blocks int64
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name  string
	IsDir bool
}

// File is an open file handle.
//
// ReadAt follows the io.ReaderAt contract: a read starting at or past end
// of file returns (0, io.EOF), and a read truncated by end of file returns
// the bytes read together with io.EOF. When n == len(p) the error is nil.
// Every system returns the same shapes, so one client read path works over
// any backend.
type File interface {
	// ReadAt reads up to len(p) bytes at offset off. It returns the number
	// of bytes read; n < len(p) only at end of file, in which case the
	// error is io.EOF (see the interface comment).
	ReadAt(p []byte, off int64) (n int, err error)
	// WriteAt writes p at offset off, extending the file as needed.
	// Handles opened with OAppend ignore off and append atomically.
	WriteAt(p []byte, off int64) (n int, err error)
	// Fsync persists all data and metadata of the file to NVMM.
	Fsync() error
	// Truncate changes the file size.
	Truncate(size int64) error
	// Size returns the current file size.
	Size() int64
	// Close releases the handle. Closing an already-closed handle returns
	// ErrClosed; operations racing Close either complete or fail with
	// ErrClosed, never touch reclaimed storage.
	Close() error
}

// Opener creates and opens files — the minimal data-plane entry point.
type Opener interface {
	// Create creates a regular file, failing if it exists.
	Create(path string) (File, error)
	// Open opens an existing file (or creates one with OCreate).
	Open(path string, flags int) (File, error)
}

// Namespace manipulates and inspects the directory tree.
type Namespace interface {
	// Mkdir creates a directory.
	Mkdir(path string) error
	// Rmdir removes an empty directory.
	Rmdir(path string) error
	// Unlink removes a regular file.
	Unlink(path string) error
	// Rename moves oldpath to newpath, replacing a regular file there.
	Rename(oldpath, newpath string) error
	// Stat describes the file at path.
	Stat(path string) (FileInfo, error)
	// ReadDir lists the directory at path.
	ReadDir(path string) ([]DirEntry, error)
}

// Syncer flushes dirty state to the device.
type Syncer interface {
	// Sync flushes all dirty state to the device.
	Sync() error
}

// FileSystem is a mounted file system instance: the composition of the
// core capabilities plus teardown.
type FileSystem interface {
	Opener
	Namespace
	Syncer
	// Unmount flushes everything and stops background work. The file
	// system must not be used afterwards.
	Unmount() error
}

// Mmapper is implemented by file systems supporting direct memory-mapped
// I/O (§4.2). Mmap returns a slice aliasing device memory; Msync persists
// stores made through it.
type Mmapper interface {
	Mmap(length int64) ([]byte, error)
	Msync() error
	Munmap() error
}

// BlockMmapper is the optional per-handle capability for block-granular
// direct memory-mapped I/O (§4.2): Mmap returns a slice aliasing the
// device memory of one file block, Msync persists stores made through it,
// Munmap ends the mapping. HiNFS handles implement it; page-cache
// baselines and remote handles do not. Discover it with FileAs — never by
// asserting on the concrete handle, which may be decorated.
type BlockMmapper interface {
	Mmap(index int64) ([]byte, error)
	Msync(index int64) error
	Munmap() error
}

// InodeNumberer is the optional per-handle capability exposing the
// backing inode number. The flight recorder stamps it into persisted
// records so post-crash forensics can name the object an op touched even
// when the path is gone. Discover it with FileAs; handles of systems
// without stable inode numbers simply do not implement it.
type InodeNumberer interface {
	InodeNumber() uint64
}

// InodeOf returns f's inode number, looking through decorations, or 0
// when the backend has none.
func InodeOf(f File) uint64 {
	if n, ok := FileAs[InodeNumberer](f); ok {
		return n.InodeNumber()
	}
	return 0
}

// FileUnwrapper is implemented by decorating file handles (latency
// instrumentation, modelled syscall overhead) so optional capabilities of
// the underlying handle stay discoverable through the decoration.
type FileUnwrapper interface {
	Unwrap() File
}

// FileAs walks f's decoration chain looking for capability T, in the
// spirit of errors.As: it returns the first layer satisfying T, following
// Unwrap until the chain ends.
func FileAs[T any](f File) (T, bool) {
	for f != nil {
		if t, ok := any(f).(T); ok {
			return t, true
		}
		u, ok := f.(FileUnwrapper)
		if !ok {
			break
		}
		f = u.Unwrap()
	}
	var zero T
	return zero, false
}

// HasBlockMmap reports whether f (or a handle it decorates) supports
// block-granular mmap.
func HasBlockMmap(f File) bool {
	_, ok := FileAs[BlockMmapper](f)
	return ok
}

// SplitPath normalizes path, appends its components to dst and returns
// the extended slice. The components are substrings of path, so a caller
// that passes a stack array (var buf [16]string; SplitPath(buf[:0], p))
// splits without allocating; deeper paths still work, append grows the
// slice. The root "/" appends nothing. It rejects, with ErrInvalid: empty
// paths, any ".." component (the namespace has no parent links, so
// dot-dot could only ever be an escape attempt), components containing
// NUL bytes, and paths exceeding MaxPathLen bytes or MaxPathComponents
// components. Components longer than MaxComponentLen return
// ErrNameTooLon. Repeated slashes, trailing slashes and "." components
// are ignored. Every namespace walk in the repository starts here, so
// these checks hold for all systems.
func SplitPath(dst []string, path string) ([]string, error) {
	if path == "" || len(path) > MaxPathLen {
		return nil, ErrInvalid
	}
	out := dst
	for rest := path; rest != ""; {
		p := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			p, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		switch p {
		case "", ".":
		case "..":
			return nil, ErrInvalid
		default:
			if len(p) > MaxComponentLen {
				return nil, ErrNameTooLon
			}
			if strings.IndexByte(p, 0) >= 0 {
				return nil, ErrInvalid
			}
			out = append(out, p)
		}
	}
	if len(out)-len(dst) > MaxPathComponents {
		return nil, ErrInvalid
	}
	return out, nil
}

// isCanonical reports whether path is exactly JoinPath(parts) for the
// parts SplitPath found in it: absolute, single separators, no "." and
// no trailing slash. Every separator or "." SplitPath dropped adds bytes
// beyond one slash per component, so the length decides.
func isCanonical(path string, parts []string) bool {
	n := len(parts)
	for _, p := range parts {
		n += len(p)
	}
	return path[0] == '/' && len(path) == n
}

// SplitDirBase splits path into its parent components and final name. It
// appends the components to dst as SplitPath does, so a caller's stack
// array keeps the split off the heap; dir is dst extended by the parent
// components, and the base stays in place after them (dir[:len(dir)+1]
// ends with it).
func SplitDirBase(dst []string, path string) (dir []string, base string, err error) {
	parts, err := SplitPath(dst, path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == len(dst) {
		return nil, "", ErrInvalid
	}
	return parts[:len(parts)-1], parts[len(parts)-1], nil
}

// JoinPath reassembles components into a canonical absolute path.
func JoinPath(parts []string) string {
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}
