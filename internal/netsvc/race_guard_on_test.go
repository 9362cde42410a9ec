//go:build race

package netsvc

// raceEnabled reports whether the race detector is compiled in; see
// race_guard_off_test.go.
const raceEnabled = true
