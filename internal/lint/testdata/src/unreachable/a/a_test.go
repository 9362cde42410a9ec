package a

import "testing"

// double is a test double: no production call may resolve to it.
type double struct{}

func (double) Ship(c Commit) error { onlyDouble(); return nil }

func TestRun(t *testing.T) {
	if OnlyTests() != 1 || Run(double{}) != nil || Count().Calls != 1 {
		t.Fatal("fixture")
	}
}
