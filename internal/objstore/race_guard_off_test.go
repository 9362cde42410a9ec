//go:build !race

package objstore

// raceEnabled reports whether the race detector is compiled in; the
// build-tagged twin of this file flips it. Allocation-count tests skip
// under -race, where sync.Pool drops items at random.
const raceEnabled = false
