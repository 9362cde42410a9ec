// Fixture for the faultpath analyzer: this package stands in for a
// client (litedb, pgdb, rockskv, shard, objstore) that must reach
// region memory only through the vm.Thread access API.
package faultpath

import (
	"memsnap/internal/mem"
	"memsnap/internal/sim"
	"memsnap/internal/vm"
)

func bad(pm *mem.PhysMem, clk *sim.Clock) {
	pg := pm.Alloc(clk) // want `\(\*mem\.PhysMem\)\.Alloc bypasses the simulated MMU`
	data := pg.Data()   // want `\(\*mem\.Page\)\.Data bypasses the simulated MMU`
	data[0] = 1
	dup := pm.Copy(clk, pg)  // want `\(\*mem\.PhysMem\)\.Copy bypasses the simulated MMU`
	_ = pm.Page(dup.Frame()) // want `\(\*mem\.PhysMem\)\.Page bypasses the simulated MMU`
	pm.Free(dup)             // want `\(\*mem\.PhysMem\)\.Free bypasses the simulated MMU`
}

// A dirty record hands out the page itself, and the page carries its
// frame's bytes: reading them off it is the same bypass.
func badPageData(rec vm.DirtyRecord) {
	rec.Page.Data()[0] = 1 // want `\(\*mem\.Page\)\.Data bypasses the simulated MMU`
	_ = rec.Page.Frame()   // metadata, not frame bytes: allowed
}

// Method values bypass just as effectively as calls.
func badMethodValue(pm *mem.PhysMem) func(mem.Frame) *mem.Page {
	return pm.Page // want `\(\*mem\.PhysMem\)\.Page bypasses the simulated MMU`
}

// The sanctioned route: every access goes through the thread so minor
// faults fire and the dirty set stays sound.
func ok(t *vm.Thread, addr uint64) byte {
	t.Write(addr, []byte{42})
	buf := make([]byte, 1)
	t.Read(addr, buf)
	return buf[0]
}

// Constructing a PhysMem is not frame access; wiring one into an
// address space is how systems boot.
func okConstruct(costs *sim.CostModel) *mem.PhysMem {
	pm := mem.New(costs)
	_ = pm.Stats()
	return pm
}

// The escape hatch: suppressed twin of bad().
func suppressed(pm *mem.PhysMem) *mem.Page {
	return pm.Page(0) //lint:allow faultpath fixture: proves suppression works
}

// A chaos schedule handler: a fault callback fired at a virtual
// instant. Handlers inject faults through charged, clock-carrying
// APIs; reaching into frames behind the MMU would mutate state no
// device ever paid latency for.
func badScheduleHandler(pm *mem.PhysMem, clk *sim.Clock) {
	pg := pm.Alloc(clk) // want `\(\*mem\.PhysMem\)\.Alloc bypasses the simulated MMU`
	buf := pg.Data()    // want `\(\*mem\.Page\)\.Data bypasses the simulated MMU`
	for i := range buf {
		buf[i] = 0xff
	}
}

// The sanctioned handler shape: corrupt state only through the access
// API, which fires faults and keeps the dirty set sound.
func okScheduleHandler(t *vm.Thread, addr uint64) {
	t.Write(addr, []byte{0xff})
}

// Suppressed twin of badScheduleHandler.
func suppressedScheduleHandler(pm *mem.PhysMem, clk *sim.Clock) {
	pm.Free(pm.Alloc(clk)) //lint:allow faultpath fixture: schedule-handler suppression twin
}
