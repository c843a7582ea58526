//go:build race

package nvmm

// raceEnabled reports a -race build, in which goroutine identification and
// sync.Pool allocate where a plain build does not, so allocation counts
// are not meaningful.
const raceEnabled = true
