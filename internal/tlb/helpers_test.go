package tlb

// Test-side readers of a TLB's size and counters.

// Len returns the number of cached translations.
func (t *TLB) Len() int { return int(t.live.Load()) }

// Stats reports hit/miss counters.
func (t *TLB) Stats() (hits, misses int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses
}
