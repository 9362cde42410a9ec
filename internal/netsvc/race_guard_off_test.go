//go:build !race

package netsvc

// raceEnabled reports whether the race detector is compiled in; the
// build-tagged twin of this file flips it. Allocation-count tests skip
// under -race, where the runtime's instrumentation allocates.
const raceEnabled = false
