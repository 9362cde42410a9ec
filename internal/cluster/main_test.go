package cluster

import (
	"fmt"
	"os"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/pool"
	"memsnap/internal/replica"
)

// TestMain audits the pools once every test in the package has run:
// each capture page, captured-page slice, extent list and encoding a
// test took must be back in its pool, on whatever path the test
// drove. The per-test InUse checks say which test leaked; this one
// covers the tests that check nothing.
func TestMain(m *testing.M) {
	code := m.Run()
	pages, slices := core.CapturePoolStats()
	for name, st := range map[string]pool.Stats{
		"capture pages":        pages,
		"captured-page slices": slices,
		"extent lists":         core.CaptureExtentStats(),
		"encodings":            replica.EncPoolStats(),
	} {
		if n := st.InUse(); n != 0 {
			fmt.Fprintf(os.Stderr, "pool audit: %d %s still in use after every test ran\n", n, name)
			code = 1
		}
	}
	os.Exit(code)
}
