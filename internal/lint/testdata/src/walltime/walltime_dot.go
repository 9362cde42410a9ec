package walltime

import . "time"

// A dot import does not hide a wall-clock read.
func badDot() Time { return Now() } // want `time\.Now reads the wall clock`

// Time's own After and Sub are arithmetic on values, not clock reads.
func okMethods(a, b Time) bool { return a.After(b) && a.Sub(b) > 0 }
