package rockskv

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// The persistent skip list (§7.2): the MemSnap-mode MemTable.
//
// Each key-value pair occupies its own 4 KiB region page (Property 2:
// no two nodes share an OS page), so MemSnap's per-thread page
// tracking captures exactly the nodes a write dirtied. Only the
// level-0 linked list is persistent; skip pointers are a volatile
// index rebuilt after a crash by walking the restored list — the
// paper's optimization that halves persisted metadata.
//
// Writers hold per-node locks from modification until their
// uCheckpoint is durable (Property 3: a dirty page cannot be
// re-dirtied by another thread before it is flushed); the simulation
// models the wait in virtual time via sim.VLock.

// nodePageSize is one node's page.
const nodePageSize = 4096

// plistMagic marks an initialized region (header page 0).
const plistMagic = 0x504c4953 // "PLIS"

// Node page layout:
//
//	keyLen  u16
//	valLen  u16
//	flags   u8 (bit 0: tombstone)
//	next0   u32 (page number of the level-0 successor; 0 = none)
//	key, value
const (
	nodeKeyLen = 0
	nodeValLen = 2
	nodeFlags  = 4
	nodeNext0  = 5
	nodeHdr    = 9
)

// maxNodePayload bounds key+value to one page.
const maxNodePayload = nodePageSize - nodeHdr

// Header page layout: magic u32, head0 u32 (page of the first node).
type plistNode struct {
	pageNo uint32
	key    []byte
	next   [maxHeight]*plistNode
}

// plist is the persistent skip list plus its volatile index.
type plist struct {
	region *core.Region

	head     *plistNode // sentinel (pageNo 0 = header page)
	height   int
	rng      *sim.RNG
	numPages uint32 // allocation frontier (page 0 is the header)
}

// openPlist initializes or recovers the list from the region.
func openPlist(ctx *core.Context, region *core.Region) (*plist, error) {
	p := &plist{
		region: region,
		head:   &plistNode{pageNo: 0},
		height: 1,
		rng:    sim.NewRNG(42),
	}
	hdr := ctx.PageForRead(region, 0)
	if binary.LittleEndian.Uint32(hdr) != plistMagic {
		// Fresh region.
		w := ctx.PageForWrite(region, 0)
		binary.LittleEndian.PutUint32(w, plistMagic)
		binary.LittleEndian.PutUint32(w[4:], 0)
		if _, err := ctx.Persist(region, core.MSSync); err != nil {
			return nil, err
		}
		p.numPages = 1
		return p, nil
	}
	// Recovery: walk the level-0 chain, rebuilding skip pointers.
	p.numPages = 1
	var preds [maxHeight]*plistNode
	for i := range preds {
		preds[i] = p.head
	}
	pageNo := binary.LittleEndian.Uint32(hdr[4:])
	for pageNo != 0 {
		page := ctx.PageForRead(region, int64(pageNo)*nodePageSize)
		kl := int(binary.LittleEndian.Uint16(page[nodeKeyLen:]))
		n := &plistNode{
			pageNo: pageNo,
			key:    append([]byte(nil), page[nodeHdr:nodeHdr+kl]...),
		}
		h := p.randomHeight()
		if h > p.height {
			p.height = h
		}
		for level := 0; level < h; level++ {
			preds[level].next[level] = n
			preds[level] = n
		}
		if pageNo >= p.numPages {
			p.numPages = pageNo + 1
		}
		pageNo = binary.LittleEndian.Uint32(page[nodeNext0:])
	}
	return p, nil
}

func (p *plist) randomHeight() int {
	h := 1
	for h < maxHeight && p.rng.Uint64()%4 == 0 {
		h++
	}
	return h
}

// findPredecessors locates key's position; preds[i] is the rightmost
// node before key at level i.
func (p *plist) findPredecessors(key []byte, preds *[maxHeight]*plistNode) *plistNode {
	x := p.head
	for level := p.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		preds[level] = x
	}
	return x.next[0]
}

// pageLockFor stripes page locks.
func pageLockFor(locks *[1024]sim.VLock, pageNo uint32) *sim.VLock {
	return &locks[pageNo%1024]
}

// put inserts or updates one key and persists the dirtied nodes as a
// uCheckpoint before returning.
func (p *plist) put(ctx *core.Context, key, val []byte, tombstone bool, structLock *sim.VLock, pageLocks *[1024]sim.VLock) error {
	clk := ctx.Clock()
	structLock.Lock(clk)
	locked, err := p.apply(ctx, key, val, tombstone, pageLocks, map[*sim.VLock]bool{})
	structLock.Unlock(clk)
	if err != nil {
		return err
	}
	_, err = ctx.Persist(p.region, core.MSSync)
	for _, l := range locked {
		l.Unlock(clk)
	}
	return err
}

// apply performs the in-memory and in-region mutation for one write
// and returns the page locks acquired (released by the caller after
// the persist). The caller holds the structure lock. held tracks
// locks already owned by this batch so stripe collisions are not
// re-acquired.
func (p *plist) apply(ctx *core.Context, key, val []byte, tombstone bool, pageLocks *[1024]sim.VLock, held map[*sim.VLock]bool) ([]*sim.VLock, error) {
	if len(key)+len(val) > maxNodePayload {
		return nil, fmt.Errorf("rockskv: payload %d exceeds node page", len(key)+len(val))
	}
	clk := ctx.Clock()

	// Page locks are only ever acquired while holding structLock and
	// are released without reacquiring it, so cross-thread deadlock is
	// impossible; held dedupes stripe collisions within one batch.
	var locked []*sim.VLock
	acquire := func(pageNo uint32) {
		l := pageLockFor(pageLocks, pageNo)
		if held[l] {
			return
		}
		held[l] = true
		l.Lock(clk)
		locked = append(locked, l)
	}

	var preds [maxHeight]*plistNode
	next := p.findPredecessors(key, &preds)

	if next != nil && bytes.Equal(next.key, key) {
		// Update in place: dirty only the node's page.
		acquire(next.pageNo)
		page := ctx.PageForWrite(p.region, int64(next.pageNo)*nodePageSize)
		succ := binary.LittleEndian.Uint32(page[nodeNext0:])
		p.encodeNode(ctx, page, key, val, tombstone, succ)
		return locked, nil
	}

	// Insert: allocate a fresh node page.
	if int64(p.numPages+1)*nodePageSize > p.region.Len() {
		return nil, fmt.Errorf("rockskv: region full (%d nodes)", p.numPages-1)
	}
	pageNo := p.numPages
	p.numPages++

	var succPage uint32
	if next != nil {
		succPage = next.pageNo
	}

	// Lock the predecessor's page for the persist window, then the
	// new node's own page (uncontended).
	pred := preds[0]
	acquire(pred.pageNo)
	acquire(pageNo)

	// Write the new node, then hook the persistent level-0 chain.
	page := ctx.PageForWrite(p.region, int64(pageNo)*nodePageSize)
	p.encodeNode(ctx, page, key, val, tombstone, succPage)
	predPage := ctx.PageForWrite(p.region, int64(pred.pageNo)*nodePageSize)
	if pred == p.head {
		binary.LittleEndian.PutUint32(predPage[4:], pageNo) // header head0
	} else {
		binary.LittleEndian.PutUint32(predPage[nodeNext0:], pageNo)
	}

	// Publish in the volatile index.
	n := &plistNode{pageNo: pageNo, key: append([]byte(nil), key...)}
	h := p.randomHeight()
	if h > p.height {
		for level := p.height; level < h; level++ {
			preds[level] = p.head
		}
		p.height = h
	}
	for level := 0; level < h; level++ {
		n.next[level] = preds[level].next[level]
		preds[level].next[level] = n
	}
	return locked, nil
}

// encodeNode fills a node page.
func (p *plist) encodeNode(ctx *core.Context, page []byte, key, val []byte, tombstone bool, next0 uint32) {
	binary.LittleEndian.PutUint16(page[nodeKeyLen:], uint16(len(key)))
	binary.LittleEndian.PutUint16(page[nodeValLen:], uint16(len(val)))
	if tombstone {
		page[nodeFlags] = 1
	} else {
		page[nodeFlags] = 0
	}
	binary.LittleEndian.PutUint32(page[nodeNext0:], next0)
	copy(page[nodeHdr:], key)
	copy(page[nodeHdr+len(key):], val)
}

// get reads a key through the volatile index.
func (p *plist) get(ctx *core.Context, key []byte, structLock *sim.VLock) ([]byte, bool) {
	clk := ctx.Clock()
	structLock.Lock(clk)
	var preds [maxHeight]*plistNode
	next := p.findPredecessors(key, &preds)
	var pageNo uint32
	if next != nil && bytes.Equal(next.key, key) {
		pageNo = next.pageNo
	}
	structLock.Unlock(clk)
	if pageNo == 0 {
		return nil, false
	}
	page := ctx.PageForRead(p.region, int64(pageNo)*nodePageSize)
	if page[nodeFlags]&1 != 0 {
		return nil, false
	}
	vl := int(binary.LittleEndian.Uint16(page[nodeValLen:]))
	kl := int(binary.LittleEndian.Uint16(page[nodeKeyLen:]))
	clk.Advance(ctx.Thread().AddressSpace().Costs().MemcpyCost(vl))
	return append([]byte(nil), page[nodeHdr+kl:nodeHdr+kl+vl]...), true
}

// scan returns up to n live entries with key >= start.
func (p *plist) scan(ctx *core.Context, start []byte, n int, structLock *sim.VLock) []KV {
	clk := ctx.Clock()
	structLock.Lock(clk)
	var preds [maxHeight]*plistNode
	x := p.findPredecessors(start, &preds)
	var nodes []*plistNode
	for x != nil && len(nodes) < n*2 {
		nodes = append(nodes, x)
		x = x.next[0]
	}
	structLock.Unlock(clk)

	var out []KV
	for _, node := range nodes {
		page := ctx.PageForRead(p.region, int64(node.pageNo)*nodePageSize)
		if page[nodeFlags]&1 != 0 {
			continue
		}
		kl := int(binary.LittleEndian.Uint16(page[nodeKeyLen:]))
		vl := int(binary.LittleEndian.Uint16(page[nodeValLen:]))
		out = append(out, KV{
			Key:   append([]byte(nil), page[nodeHdr:nodeHdr+kl]...),
			Value: append([]byte(nil), page[nodeHdr+kl:nodeHdr+kl+vl]...),
		})
		if len(out) >= n {
			break
		}
	}
	return out
}
