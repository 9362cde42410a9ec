package disk

import (
	"sync"
	"time"

	"memsnap/internal/sim"
)

// Extent names one contiguous run of bytes on the array for vectored
// IO.
type Extent struct {
	Offset int64
	Data   []byte
	// Block, if set, carries the extent's bytes in place of Data: one
	// whole, block-aligned block that the device adopts by pointer, so
	// the caller must not touch it again. In exchange WriteV leaves a
	// spare buffer (arbitrary contents, now the caller's) in this
	// field of the caller's slice.
	Block *Block
}

// Array is a striped set of devices presenting one flat address
// space — the paper's two Intel 900Ps striped in 64 KiB blocks.
type Array struct {
	devices []*Device
	stripe  int64
}

// NewArray builds an array of n devices of capacityEach bytes striped
// at the cost model's StripeSize.
func NewArray(costs *sim.CostModel, n int, capacityEach int64) *Array {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	if n <= 0 {
		n = 1
	}
	a := &Array{stripe: int64(costs.StripeSize)}
	for i := 0; i < n; i++ {
		a.devices = append(a.devices, NewDevice(costs, capacityEach))
	}
	return a
}

// Capacity returns the total array capacity in bytes.
func (a *Array) Capacity() int64 {
	return int64(len(a.devices)) * a.devices[0].Capacity()
}

// Write issues a contiguous write at virtual time at and returns the
// completion time (the max across devices). Per-device pieces of one
// logical IO are issued as a single command per device: the stripe
// controller coalesces them, so each device pays one base latency.
func (a *Array) Write(at time.Duration, offset int64, data []byte) time.Duration {
	// A fixed-size array keeps the one-extent vector off the heap on
	// the per-commit path.
	ext := [1]Extent{{Offset: offset, Data: data}}
	return a.WriteV(at, ext[:])
}

// WriteV issues a vectored write of several extents as one logical
// operation (MemSnap's scatter/gather uCheckpoint IO). Bytes are
// grouped per device; each device receives one command covering its
// share, paying one base latency plus the transfer of its bytes. The
// returned completion is the time the last device finishes.
func (a *Array) WriteV(at time.Duration, extents []Extent) time.Duration {
	plan := getWritePlan(len(a.devices))
	perDev := plan.perDev
	for i, e := range extents {
		off := e.Offset
		data := e.Data
		if e.Block != nil {
			data = e.Block[:]
		}
		for len(data) > 0 {
			stripeIdx := off / a.stripe
			within := off % a.stripe
			take := int(a.stripe - within)
			if take > len(data) {
				take = len(data)
			}
			dev := int(stripeIdx % int64(len(a.devices)))
			row := stripeIdx / int64(len(a.devices))
			perDev[dev].segs = append(perDev[dev].segs, Extent{
				Offset: row*a.stripe + within,
				Data:   data[:take],
				Block:  e.Block,
			})
			perDev[dev].from = append(perDev[dev].from, i)
			perDev[dev].size += take
			off += int64(take)
			data = data[take:]
		}
	}
	var completion time.Duration
	for i, io := range perDev {
		if io.size == 0 {
			continue
		}
		done := a.devices[i].submitWriteV(at, io.segs, io.size)
		if done > completion {
			completion = done
		}
		for j, s := range io.segs {
			if s.Block != nil {
				extents[io.from[j]].Block = s.Block
			}
		}
	}
	if completion == 0 {
		completion = at
	}
	putWritePlan(plan)
	return completion
}

// devIO is one device's share of a vectored write; from[j] is the
// caller's extent that segs[j] came from, which an adopted block's
// spare goes back to.
type devIO struct {
	segs []Extent
	from []int
	size int
}

// writePlan is the reusable per-WriteV scatter plan; the devices copy
// or adopt segment data synchronously during submit, so the plan
// recycles as soon as WriteV returns.
type writePlan struct {
	perDev []devIO
}

var writePlans sync.Pool

func getWritePlan(devices int) *writePlan {
	p, _ := writePlans.Get().(*writePlan)
	if p == nil {
		p = &writePlan{}
	}
	if cap(p.perDev) < devices {
		p.perDev = make([]devIO, devices)
	}
	p.perDev = p.perDev[:devices]
	for i := range p.perDev {
		p.perDev[i].segs = p.perDev[i].segs[:0]
		p.perDev[i].from = p.perDev[i].from[:0]
		p.perDev[i].size = 0
	}
	return p
}

func putWritePlan(p *writePlan) {
	// Drop the data references so the pooled plan does not pin frames.
	for i := range p.perDev {
		clear(p.perDev[i].segs)
	}
	writePlans.Put(p)
}

// submitWriteV applies several segments as one device command. A
// segment with a Block is adopted, and its Block is replaced by the
// spare handed back for it.
func (d *Device) submitWriteV(at time.Duration, segs []Extent, total int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := max(at, d.nextFree)
	completion := start + d.ioCostLocked(start, total)
	d.nextFree = completion
	for i, s := range segs {
		segs[i].Block = d.writeLocked(at, completion, s.Offset, s.Data, s.Block)
	}
	d.writes++
	d.gcInflightLocked(at)
	return completion
}

// Read issues a contiguous read and returns the completion time.
func (a *Array) Read(at time.Duration, offset int64, buf []byte) time.Duration {
	var completion time.Duration
	off := offset
	remaining := buf
	for len(remaining) > 0 {
		stripeIdx := off / a.stripe
		within := off % a.stripe
		take := int(a.stripe - within)
		if take > len(remaining) {
			take = len(remaining)
		}
		dev := int(stripeIdx % int64(len(a.devices)))
		row := stripeIdx / int64(len(a.devices))
		done := a.devices[dev].SubmitRead(at, row*a.stripe+within, remaining[:take])
		if done > completion {
			completion = done
		}
		off += int64(take)
		remaining = remaining[take:]
	}
	if completion == 0 {
		completion = at
	}
	return completion
}

// CutPower tears all devices' in-flight writes at virtual time at.
// The cut is clamped forward to the highest undo-reclaim floor across
// the devices (see Device.CutPower) and the clamped instant is applied
// to every device uniformly, so the whole array crashes at one
// consistent virtual time.
func (a *Array) CutPower(at time.Duration, rng *sim.RNG) {
	for _, d := range a.devices {
		if f := d.GCFloor(); f > at {
			at = f
		}
	}
	for _, d := range a.devices {
		d.CutPower(at, rng)
	}
}

// SetStraggler installs a slow-IO window on device dev (see
// Device.SetStraggler). Because the array fans one logical IO out
// across the stripe and completes at the max across devices, a single
// straggling device throttles the whole array — the fail-slow
// amplification fault schedules exercise.
func (a *Array) SetStraggler(dev int, from, to time.Duration, factor int) {
	a.devices[dev].SetStraggler(from, to, factor)
}

// Stats sums the counters across all devices.
func (a *Array) Stats() Stats {
	var total Stats
	for _, d := range a.devices {
		s := d.Stats()
		total.Writes += s.Writes
		total.Reads += s.Reads
		total.BytesWritten += s.BytesWritten
		total.BytesRead += s.BytesRead
	}
	return total
}
