package tlb

// Len returns the number of cached translations.
func (t *TLB) Len() int { return int(t.live.Load()) }
