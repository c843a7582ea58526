package vfs

import "testing"

// TestOpGolden freezes the op vocabulary. Codes 1–14 are persisted in
// NVMM flight rings and sent on the wire; the names appear in slow-op
// logs, forensics dumps and dashboards built on them. Changing a row of
// this table orphans every ring and log already written.
func TestOpGolden(t *testing.T) {
	golden := []struct {
		op   Op
		code uint8
		name string
	}{
		{OpOpen, 1, "open"},
		{OpCreate, 2, "create"},
		{OpClose, 3, "close"},
		{OpRead, 4, "read"},
		{OpWrite, 5, "write"},
		{OpFsync, 6, "fsync"},
		{OpTruncate, 7, "truncate"},
		{OpMkdir, 8, "mkdir"},
		{OpRmdir, 9, "rmdir"},
		{OpUnlink, 10, "unlink"},
		{OpRename, 11, "rename"},
		{OpStat, 12, "stat"},
		{OpReadDir, 13, "readdir"},
		{OpSync, 14, "sync"},
		{OpSize, 15, "size"},
	}
	if len(golden) != len(opNames)-1 {
		t.Fatalf("%d ops are named, the golden table has %d: add the new op here", len(opNames)-1, len(golden))
	}
	seen := map[string]bool{}
	for _, g := range golden {
		if uint8(g.op) != g.code {
			t.Errorf("%s has code %d, want %d", g.name, g.op, g.code)
		}
		if got := g.op.String(); got != g.name {
			t.Errorf("Op(%d).String() = %q, want %q", g.code, got, g.name)
		}
		if seen[g.name] {
			t.Errorf("name %q used twice", g.name)
		}
		seen[g.name] = true
	}
	for _, op := range []Op{0, Op(len(opNames)), 0xff} {
		if got := op.String(); got != "unknown" {
			t.Errorf("Op(%d).String() = %q, want unknown", op, got)
		}
	}
}
