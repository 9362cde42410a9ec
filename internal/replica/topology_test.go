package replica

import (
	"testing"

	"memsnap/internal/vm"
)

// TestFollowerShardsOwnTheirAddressSpaces: like the primary's
// (shard.TestShardsOwnTheirAddressSpaces), every follower shard is one
// process with one thread, so no two follower shards share an
// AddressSpace and its fault lock.
func TestFollowerShardsOwnTheirAddressSpaces(t *testing.T) {
	fol := batchFollower(t, 4)
	seen := make(map[*vm.AddressSpace]int)
	for i, fs := range fol.shards {
		as := fs.ctx.Thread().AddressSpace()
		if j, ok := seen[as]; ok {
			t.Errorf("follower shards %d and %d share an address space", j, i)
		}
		seen[as] = i
		if n := len(as.Threads()); n != 1 {
			t.Errorf("follower shard %d's address space holds %d threads, want 1", i, n)
		}
	}
}
