package disk

import "time"

// Test-side device access: a single-extent write and zero-cost reads
// of what the backing store holds.

// SubmitWrite issues a write at virtual time at and returns its
// completion time. Data lands in the backing store immediately but is
// only durable once the returned completion time has passed relative
// to any later CutPower.
func (d *Device) SubmitWrite(at time.Duration, offset int64, data []byte) time.Duration {
	seg := [1]Extent{{Offset: offset, Data: data}}
	return d.submitWriteV(at, seg[:], len(data))
}

// PeekAt copies device contents without charging any cost or touching
// the queue.
func (d *Device) PeekAt(offset int64, buf []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(offset, len(buf))
	d.readLocked(offset, buf)
}

// PeekAt reads array contents without cost.
func (a *Array) PeekAt(offset int64, buf []byte) {
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
		a.devices[dev].PeekAt(row*a.stripe+within, remaining[:take])
		off += int64(take)
		remaining = remaining[take:]
	}
}
