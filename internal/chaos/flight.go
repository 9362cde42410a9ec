package chaos

import (
	"fmt"
	"path/filepath"
	"strings"

	"memsnap/internal/obs"
)

// flightRingEvents sizes the per-cell flight-recorder ring. Cells are
// short (hundreds of ops), so this comfortably covers a whole cell;
// on longer runs the ring keeps the most recent window, which is what
// a post-mortem wants.
const flightRingEvents = 1 << 14

// writeCellBundle writes a failing cell's flight-recorder bundle into
// dir, recording the path (or the write error, as one more violation)
// on res. The cluster may already be torn down: the recorder ring, the
// final stats and the metrics survive teardown.
func writeCellBundle(dir string, r *rig, res *CellResult) {
	vars := r.Vars()
	vars["cell"] = res
	b := obs.Bundle{
		Reason: fmt.Sprintf("chaos cell %s: %d violation(s): %s",
			res.ID, len(res.Violations), strings.Join(res.Violations, "; ")),
		VirtualNow: r.now(),
		Vars:       vars,
		Metrics:    r.WritePrometheus,
		Recorder:   r.rec,
	}
	path := filepath.Join(dir, bundleFileName(res.ID))
	if err := obs.WriteBundleFile(path, b); err != nil {
		res.fail("flight bundle: %v", err)
		return
	}
	res.BundlePath = path
}

// bundleFileName maps a cell ID (which contains '/' and '=') onto one
// portable file name, e.g. seed-7_sched-powercut_topo-replica.flight.json.
func bundleFileName(cellID string) string {
	var sb strings.Builder
	for _, r := range cellID {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			sb.WriteRune(r)
		case r == '/':
			sb.WriteByte('_')
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String() + ".flight.json"
}
