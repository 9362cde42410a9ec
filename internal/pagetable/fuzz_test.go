package pagetable

import (
	"testing"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
)

// FuzzTableWalk drives the 4-level radix table with a decoded op
// stream and cross-checks Map/Unmap/Walk/ScanRange against a map
// oracle. It also pins the invariant the trace-buffer strategy
// depends on (Fig. 1): a *PTE returned for a VPN stays aliased to the
// live entry for the table's lifetime, exactly like a pinned physical
// PTE address. Four bytes per op:
//
//	byte 0 & 3:  opcode (0 map, 1 unmap, 2 walk, 3 scan)
//	byte 0 & 4:  writable bit for map
//	bytes 1-3:   27-bit VPN (spans multiple leaf nodes and levels)
func FuzzTableWalk(f *testing.F) {
	f.Add([]byte("0aaa2aaa1aaa2aaa"))
	f.Add([]byte("0\x00\x00\x010\x00\x02\x010\x7f\xff\xff2\x00\x00\x013\x00\x00\x00"))
	f.Add([]byte("4abc6abc5abc7abc")) // writable-bit variants
	f.Add([]byte("0aaa0aab0aac0aad3aa\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := New(nil)
		clk := sim.NewClock()
		type entry struct {
			frame    mem.Frame
			writable bool
		}
		oracle := map[uint64]entry{}
		ptes := map[uint64]*PTE{} // pinned PTE references, as a trace buffer would hold
		lastNodes := 0

		for op := 0; len(data) >= 4; op++ {
			kind := data[0] & 3
			writable := data[0]&4 != 0
			vpn := uint64(data[1])<<18 | uint64(data[2])<<9 | uint64(data[3])
			data = data[4:]

			switch kind {
			case 0: // map
				pte := tab.Map(vpn, mem.Frame(uint32(vpn)), writable)
				if !pte.Present || pte.Frame != mem.Frame(uint32(vpn)) || pte.Writable != writable {
					t.Fatalf("op %d: Map(%#x) installed %+v", op, vpn, *pte)
				}
				if old, ok := ptes[vpn]; ok && old != pte {
					t.Fatalf("op %d: Map(%#x) returned a different *PTE; stored references must stay stable", op, vpn)
				}
				ptes[vpn] = pte
				oracle[vpn] = entry{frame: mem.Frame(uint32(vpn)), writable: writable}
			case 1: // unmap
				tab.Unmap(vpn)
				delete(oracle, vpn)
				if pte, ok := ptes[vpn]; ok && pte.Present {
					t.Fatalf("op %d: Unmap(%#x) left the pinned PTE present", op, vpn)
				}
			case 2: // charged walk
				before := clk.Now()
				pte := tab.Walk(clk, vpn)
				if clk.Now() <= before {
					t.Fatalf("op %d: Walk charged no virtual time", op)
				}
				want, present := oracle[vpn]
				switch {
				case present:
					if pte == nil || !pte.Present || pte.Frame != want.frame || pte.Writable != want.writable {
						t.Fatalf("op %d: Walk(%#x) = %+v, oracle %+v", op, vpn, pte, want)
					}
					if pinned := ptes[vpn]; pinned != nil && pinned != pte {
						t.Fatalf("op %d: Walk(%#x) returned a different *PTE than the pinned reference", op, vpn)
					}
				case pte != nil && pte.Present:
					t.Fatalf("op %d: Walk(%#x) found a phantom entry %+v", op, vpn, pte)
				}
			case 3: // scan a window and compare with the oracle subset
				pages := vpn%1500 + 1
				start := vpn - vpn%7
				seen := map[uint64]bool{}
				tab.ScanRange(clk, start, pages, func(pte *PTE) {
					if pte.VPN < start || pte.VPN >= start+pages {
						t.Fatalf("op %d: ScanRange visited out-of-range VPN %#x", op, pte.VPN)
					}
					if seen[pte.VPN] {
						t.Fatalf("op %d: ScanRange visited VPN %#x twice", op, pte.VPN)
					}
					seen[pte.VPN] = true
					want, ok := oracle[pte.VPN]
					if !ok || pte.Frame != want.frame {
						t.Fatalf("op %d: ScanRange saw %+v, oracle %+v (present=%v)", op, *pte, want, ok)
					}
				})
				for v := range oracle {
					if v >= start && v < start+pages && !seen[v] {
						t.Fatalf("op %d: ScanRange [%#x,+%d) missed mapped VPN %#x", op, start, pages, v)
					}
				}
			}

			if n := tab.nodes; n < lastNodes {
				t.Fatalf("op %d: NodeCount went backwards (%d -> %d)", op, lastNodes, n)
			} else {
				lastNodes = n
			}
		}

		// Final sweep: Lookup agrees with the oracle for every key ever
		// touched, and pinned references still alias live entries.
		for vpn, pte := range ptes {
			got := tab.Lookup(vpn)
			if got != pte {
				t.Fatalf("final: Lookup(%#x) no longer returns the pinned *PTE", vpn)
			}
			if want, ok := oracle[vpn]; ok {
				if !got.Present || got.Frame != want.frame {
					t.Fatalf("final: Lookup(%#x) = %+v, oracle %+v", vpn, *got, want)
				}
			} else if got.Present {
				t.Fatalf("final: Lookup(%#x) present after unmap", vpn)
			}
		}
	})
}
