// Package b implements a.Replicator; only the cross-universe CHA edge
// from a.Run reaches Ship and what it calls.
package b

import "memsnap/internal/lint/testdata/src/unreachable/a"

// Shipper is the production Replicator.
type Shipper struct{ n int }

func (s *Shipper) Ship(c a.Commit) error { s.n = count(c); return nil }

func count(c a.Commit) int { return c.Seq }
