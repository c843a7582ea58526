package vfs

// Op names one operation of the FileSystem and File interfaces. It is the
// request path's only op vocabulary: the server's wire opcode, the op byte
// of a persisted flight record, the op an Observer is told about and the
// "op" string of slow-op logs and forensics dumps are all this value.
//
// Values 1–14 are persisted in NVMM flight rings and must never be
// renumbered; new ops are appended. Unmount has no Op: it is teardown,
// never sent on the wire and never observed.
type Op uint8

// The operations. The zero Op is invalid and prints as "unknown".
const (
	OpOpen Op = iota + 1
	OpCreate
	OpClose
	OpRead
	OpWrite
	OpFsync
	OpTruncate
	OpMkdir
	OpRmdir
	OpUnlink
	OpRename
	OpStat
	OpReadDir
	OpSync
	// OpSize is File.Size. It exists for the wire (a remote handle has to
	// ask); local decorators pass Size through unobserved and the flight
	// ring records a served size request as OpStat.
	OpSize
)

var opNames = [...]string{
	OpOpen:     "open",
	OpCreate:   "create",
	OpClose:    "close",
	OpRead:     "read",
	OpWrite:    "write",
	OpFsync:    "fsync",
	OpTruncate: "truncate",
	OpMkdir:    "mkdir",
	OpRmdir:    "rmdir",
	OpUnlink:   "unlink",
	OpRename:   "rename",
	OpStat:     "stat",
	OpReadDir:  "readdir",
	OpSync:     "sync",
	OpSize:     "size",
}

// String returns the op's name as logs, metrics and forensics print it.
func (op Op) String() string {
	if op == 0 || int(op) >= len(opNames) {
		return "unknown"
	}
	return opNames[op]
}
