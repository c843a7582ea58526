//go:build race

package nvmm

// raceEnabled reports a -race build, in which sync.Pool drops items at
// random and so allocates where a plain build does not: allocation
// counts are not meaningful.
const raceEnabled = true
