// Package a is the library half of the unreachable fixture: its
// Replicator names a's own Commit type, so the interface is a
// different types.Type in each of the loader's universes, and package
// b implements it.
package a

// Commit is the value the interface hands over.
type Commit struct{ Seq int }

// Replicator is implemented in package b and by a test double here.
type Replicator interface {
	Ship(c Commit) error
}

// Run calls through the interface: the call must reach b's Shipper.
// Taking an empty interface keeps the conversion at the call site from
// keeping Ship, so only the class-hierarchy edge can reach it.
func Run(v any) error { return v.(Replicator).Ship(Commit{Seq: 1}) }

// Callerless has no caller at all.
func Callerless() {} // want `Callerless is unreachable from every main.*no test reaches it either`

// OnlyTests is called from a _test.go file and nothing else.
func OnlyTests() int { return 1 } // want `OnlyTests is unreachable from every main.*only tests reach it`

// onlyDouble is called by the test double alone; if the double were a
// callee of Run, main would reach it.
func onlyDouble() {} // want `onlyDouble is unreachable from every main.*only tests reach it`

// Name is printed by main: the conversion to an empty interface keeps
// String.
type Name int

func (n Name) String() string { return "name" }

// Quiet is never converted to an interface, so its String is dead.
type Quiet int

func (q Quiet) String() string { return "quiet" } // want `String is unreachable from every main.*no test reaches it either`

// Value is taken as a function value by main, never called by name.
func Value() int { return 2 }

// fromVar is reached through a package-level initialiser.
func fromVar() int { return 3 }

var handlers = map[string]func() int{"var": fromVar}

// fromInit is reached through init.
func fromInit() { _ = handlers }

func init() { fromInit() }

// Suppressed is kept as documented API; what it calls stays with it.
//
//lint:allow unreachable documented API no program calls yet
func Suppressed() { keptBySuppressed() }

func keptBySuppressed() {}
