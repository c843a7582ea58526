//go:build !race

package nvmm

const raceEnabled = false
