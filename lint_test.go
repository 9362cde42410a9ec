package memsnap_test

// TestLint is the enforcement point for the repo's design rules: it
// runs every internal/lint analyzer over the whole module, so the
// tier-1 `go test ./...` fails on any violation. The same suite is
// available standalone as `go run ./cmd/memsnap-lint ./...`.
//
// The rules (see DESIGN.md "Enforced invariants"):
//
//	walltime    - only sim.Clock may advance time
//	globalrand  - all randomness from the seeded sim.RNG
//	sockio      - real sockets only at the documented wall boundaries
//	unreachable - every non-test function is reachable from a main
//	              under cmd/ or benchmark/ (the Example functions
//	              beside this file are tests, not roots), an init or
//	              a package-level initialiser, and every field that
//	              reached code writes, reached code reads
//
// Escape hatch: //lint:allow <rule> <reason> on or above the line.

import (
	"testing"

	"memsnap/internal/lint"
)

func TestLint(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loader found only %d packages; module discovery is broken", len(pkgs))
	}
	diags := lint.Run(pkgs, lint.Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d design-rule violation(s); see DESIGN.md \"Enforced invariants\" for the rules and the //lint:allow escape hatch", len(diags))
	}
}
