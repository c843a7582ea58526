package nvmm

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// vmRSS returns the process's resident set in bytes, from /proc/self/status.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 && fields[0] == "VmRSS:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Skip("no VmRSS in /proc/self/status")
	return 0
}

// TestDroppedDevicesReleaseTheirImages: a device's image lives outside the
// Go heap and is unmapped once the device is unreachable. Creating, fully
// touching and dropping 32 devices and then running the collector must
// leave the resident set where it started — not 32 images higher.
func TestDroppedDevicesReleaseTheirImages(t *testing.T) {
	const devices, size = 32, 2 << 20
	runtime.GC()
	before := vmRSS(t)
	devs := make([]*Device, devices)
	for i := range devs {
		devs[i] = MustNew(Config{Size: size})
		img := devs[i].Slice(0, size)
		for off := 0; off < size; off += 4096 {
			img[off] = byte(i + 1)
		}
	}
	grew := func() int64 { return vmRSS(t) - before }
	if g := grew(); g < devices*size*3/4 {
		t.Fatalf("touching %d devices of %d bytes grew the resident set by only %d bytes", devices, size, g)
	}
	devs = nil
	// Cleanups run on a goroutine of their own after the cycle that found
	// the devices unreachable.
	const limit = 4 * size
	for deadline := time.Now().Add(5 * time.Second); grew() > limit && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if g := grew(); g > limit {
		t.Fatalf("after %d devices were dropped and collected the resident set is %d bytes higher, want at most %d", devices, g, limit)
	}
}
