// Package fs simulates the file-API baselines MemSnap is evaluated
// against: a VFS layer with a write-back buffer cache on top of two
// filesystem personalities —
//
//   - FFS: journaling + soft-updates style. Random block flushes pay
//     per-block metadata (cylinder group / indirect block) costs;
//     sequential extents amortize them.
//   - CoWFS ("ZFS"): copy-on-write. Random block flushes rewrite
//     indirect chains; transaction-group commits add fixed barriers.
//
// The cost structure is calibrated against the fsync columns of the
// paper's Table 6. Data flushes are chunked at 128 KiB (MAXPHYS) and
// issued at queue depth 1, which is why file writes do not enjoy the
// stripe parallelism MemSnap's vectored uCheckpoint IO gets.
package fs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/obs"
	"memsnap/internal/sim"
)

// BlockSize is the filesystem block size.
const BlockSize = 4096

// maxPhys is the largest single data IO the FS issues.
const maxPhys = 128 << 10

// Kind selects the filesystem personality.
type Kind int

const (
	// FFS is the journaling / soft-updates personality.
	FFS Kind = iota
	// CoWFS is the copy-on-write (ZFS-like) personality.
	CoWFS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == CoWFS {
		return "zfs"
	}
	return "ffs"
}

// FS is one mounted filesystem over its own disk array.
type FS struct {
	costs *sim.CostModel
	arr   *disk.Array
	kind  Kind

	mu    sync.Mutex
	files map[string]*File
	next  int64 // block allocator bump pointer (bytes)

	// WriteStats/ReadStats/FsyncStats mirror the paper's syscall
	// accounting (Table 7, Table 9): one latency sample per call.
	WriteStats, ReadStats, FsyncStats obs.Histogram

	// Buckets, when set, accumulates kernel CPU time by component
	// (the Table 1 / Table 8 breakdowns): "syscall", "vfs",
	// "buffer cache", "file system", "data io".
	Buckets *sim.TimeBuckets
}

// New mounts an empty filesystem of the given kind over arr.
func New(costs *sim.CostModel, arr *disk.Array, kind Kind) *FS {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &FS{
		costs: costs,
		arr:   arr,
		kind:  kind,
		files: make(map[string]*File),
	}
}

// Array exposes the backing array for disk-throughput accounting.
func (f *FS) Array() *disk.Array { return f.arr }

// charge advances clk and mirrors the charge into a kernel bucket if
// accounting is enabled.
func (f *FS) charge(clk *sim.Clock, bucket string, d time.Duration) {
	clk.Advance(d)
	if f.Buckets != nil {
		f.Buckets.Add(bucket, d)
	}
}

// Kind returns the personality.
func (f *FS) Kind() Kind { return f.kind }

// File is one file: cached blocks plus their on-disk placement.
type File struct {
	fs   *FS
	name string

	mu     sync.Mutex
	size   int64
	cache  map[int64]*cachedBlock // block index -> cache entry
	onDisk map[int64]int64        // block index -> disk offset
	// flushedHigh is the highest block index flushed so far; rewrites
	// at or past it are log-tail appends (no metadata churn), not
	// random updates.
	flushedHigh int64
}

type cachedBlock struct {
	data  []byte
	dirty bool
}

// Create makes (or truncates) a file.
func (f *FS) Create(clk *sim.Clock, name string) *File {
	clk.Advance(f.costs.SyscallEntry + f.costs.VFSLookup)
	f.mu.Lock()
	defer f.mu.Unlock()
	file := &File{
		fs:          f,
		name:        name,
		cache:       make(map[int64]*cachedBlock),
		onDisk:      make(map[int64]int64),
		flushedHigh: -1,
	}
	f.files[name] = file
	return file
}

// Open returns an existing file.
func (f *FS) Open(clk *sim.Clock, name string) (*File, error) {
	clk.Advance(f.costs.SyscallEntry + f.costs.VFSLookup)
	f.mu.Lock()
	defer f.mu.Unlock()
	file, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %s: no such file", name)
	}
	return file, nil
}

// Remove deletes a file, releasing its blocks.
func (f *FS) Remove(clk *sim.Clock, name string) {
	clk.Advance(f.costs.SyscallEntry + f.costs.VFSLookup)
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.files, name)
}

// allocBlock hands out one on-disk block.
func (f *FS) allocBlock() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	off := f.next
	f.next += BlockSize
	if f.next > f.arr.Capacity() {
		// Files in the baselines are overwritten in place; when the
		// log of block allocations runs off the end, wrap. (The
		// baseline volumes are sized generously by callers.)
		f.next = 0
	}
	return off
}

// Name returns the file name.
func (fl *File) Name() string { return fl.name }

// Size returns the file size in bytes.
func (fl *File) Size() int64 {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.size
}

// ResidentBlocks returns how many blocks are in the buffer cache.
func (fl *File) ResidentBlocks() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.cache)
}

// DirtyBlocks returns how many cached blocks are dirty.
func (fl *File) DirtyBlocks() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	n := 0
	for _, b := range fl.cache {
		if b.dirty {
			n++
		}
	}
	return n
}

// Write implements the write syscall: data lands in the buffer cache
// (write-back); nothing reaches the disk until Fsync.
func (fl *File) Write(clk *sim.Clock, off int64, data []byte) {
	fs := fl.fs
	start := clk.Now()
	fs.charge(clk, "syscall", fs.costs.SyscallEntry)
	fs.charge(clk, "vfs", fs.costs.VFSLookup)
	fs.charge(clk, "buffer cache", fs.costs.MemcpyCost(len(data)))

	fl.mu.Lock()
	for len(data) > 0 {
		idx := off / BlockSize
		within := off % BlockSize
		n := BlockSize - within
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		blk := fl.cache[idx]
		if blk == nil {
			blk = &cachedBlock{data: make([]byte, BlockSize)}
			fl.cache[idx] = blk
			fs.charge(clk, "buffer cache", fs.costs.BufferCacheInsert)
			if addr, ok := fl.onDisk[idx]; ok && (within != 0 || n != BlockSize) {
				// Partial overwrite of an uncached on-disk block:
				// read-modify-write.
				done := fs.arr.Read(clk.Now(), addr, blk.data)
				clk.AdvanceTo(done)
			}
		} else {
			fs.charge(clk, "buffer cache", fs.costs.BufferCacheLookup)
		}
		copy(blk.data[within:], data[:n])
		blk.dirty = true
		off += n
		data = data[n:]
	}
	if off > fl.size {
		fl.size = off
	}
	fl.mu.Unlock()

	fs.WriteStats.Record(clk.Now() - start)
}

// Read implements the read syscall.
func (fl *File) Read(clk *sim.Clock, off int64, buf []byte) {
	fs := fl.fs
	start := clk.Now()
	fs.charge(clk, "syscall", fs.costs.SyscallEntry)
	fs.charge(clk, "vfs", fs.costs.VFSLookup)
	fs.charge(clk, "buffer cache", fs.costs.MemcpyCost(len(buf)))

	fl.mu.Lock()
	for len(buf) > 0 {
		idx := off / BlockSize
		within := off % BlockSize
		n := BlockSize - within
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		blk := fl.cache[idx]
		if blk == nil {
			blk = &cachedBlock{data: make([]byte, BlockSize)}
			if addr, ok := fl.onDisk[idx]; ok {
				done := fs.arr.Read(clk.Now(), addr, blk.data)
				clk.AdvanceTo(done)
			}
			fl.cache[idx] = blk
			fs.charge(clk, "buffer cache", fs.costs.BufferCacheInsert)
		} else {
			fs.charge(clk, "buffer cache", fs.costs.BufferCacheLookup)
		}
		copy(buf[:n], blk.data[within:within+n])
		off += n
		buf = buf[n:]
	}
	fl.mu.Unlock()

	fs.ReadStats.Record(clk.Now() - start)
}

// Truncate shrinks the file to length bytes, dropping cached blocks
// past the end.
func (fl *File) Truncate(clk *sim.Clock, length int64) {
	clk.Advance(fl.fs.costs.SyscallEntry + fl.fs.costs.VFSLookup)
	fl.mu.Lock()
	defer fl.mu.Unlock()
	lastBlock := (length + BlockSize - 1) / BlockSize
	for idx := range fl.cache {
		if idx >= lastBlock {
			delete(fl.cache, idx)
		}
	}
	for idx := range fl.onDisk {
		if idx >= lastBlock {
			delete(fl.onDisk, idx)
		}
	}
	fl.size = length
	if fl.flushedHigh >= lastBlock {
		fl.flushedHigh = lastBlock - 1
	}
}

// Fsync flushes the file's dirty blocks and the metadata needed to
// reference them, blocking until durable. Cost is O(dirty set).
func (fl *File) Fsync(clk *sim.Clock) {
	fl.sync(clk, false)
}

// Msync is the flush path for memory-mapped files: before flushing it
// must scan the mapping's page tables to find dirty pages, so its
// cost scales with the file's *resident* size, not just the dirty
// set — the effect behind the baseline's degradation in Figure 5 and
// the paper's §2 critique of msync.
func (fl *File) Msync(clk *sim.Clock) {
	fl.sync(clk, true)
}

func (fl *File) sync(clk *sim.Clock, mapped bool) {
	fs := fl.fs
	start := clk.Now()
	fs.charge(clk, "syscall", fs.costs.SyscallEntry)
	fs.charge(clk, "vfs", fs.costs.VFSLookup)

	fl.mu.Lock()
	var dirty []int64
	for idx, blk := range fl.cache {
		if blk.dirty {
			dirty = append(dirty, idx)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })

	if mapped {
		// Page-table scan over the resident mapping.
		fs.charge(clk, "file system", time.Duration(len(fl.cache))*fs.costs.PageTableScanPerEntry)
	}

	if len(dirty) == 0 {
		fl.mu.Unlock()
		fs.FsyncStats.Record(clk.Now() - start)
		return
	}

	// Allocate/locate on-disk homes and classify the flush pattern.
	//
	// FFS overwrites in place: blocks extending a disk-contiguous run
	// amortize metadata, a run head that overwrites an old block pays
	// the full cylinder-group/indirect read-modify-write cost, and
	// freshly allocated heads (log appends) are cheap. CoWFS never
	// overwrites: every block gets a new address (sequential on
	// disk), and the expensive unit is the indirect-chain rewrite per
	// *logically* discontiguous run.
	type run struct {
		addr int64
		data []byte
	}
	var runs []run
	expensiveBlocks := 0 // blocks paying full per-block metadata cost
	cheapBlocks := 0     // blocks amortized into a run
	prevIdx := int64(-2)
	prevHigh := fl.flushedHigh
	for _, idx := range dirty {
		blk := fl.cache[idx]
		addr, ok := fl.onDisk[idx]
		fresh := !ok || idx >= prevHigh // appends and tail rewrites
		if !ok || fs.kind == CoWFS {
			addr = fs.allocBlock()
			fl.onDisk[idx] = addr
		}
		if idx > fl.flushedHigh {
			fl.flushedHigh = idx
		}
		extends := false
		if n := len(runs); n > 0 && runs[n-1].addr+int64(len(runs[n-1].data)) == addr {
			runs[n-1].data = append(runs[n-1].data, blk.data...)
			extends = true
		} else {
			runs = append(runs, run{addr: addr, data: append([]byte(nil), blk.data...)})
		}
		switch fs.kind {
		case FFS:
			if extends || fresh {
				cheapBlocks++
			} else {
				expensiveBlocks++
			}
		case CoWFS:
			if idx == prevIdx+1 {
				cheapBlocks++
			} else {
				expensiveBlocks++
			}
		}
		prevIdx = idx
		blk.dirty = false
	}
	fl.mu.Unlock()

	fs.chargeMetadata(clk, expensiveBlocks, cheapBlocks)

	// Data IO: chunked at maxPhys, queue depth 1.
	at := clk.Now()
	for _, r := range runs {
		data := r.data
		addr := r.addr
		for len(data) > 0 {
			n := maxPhys
			if n > len(data) {
				n = len(data)
			}
			at = fs.arr.Write(at, addr, data[:n])
			addr += int64(n)
			data = data[n:]
		}
	}
	if fs.Buckets != nil {
		fs.Buckets.Add("data io", at-clk.Now())
	}
	clk.AdvanceTo(at)

	fs.FsyncStats.Record(clk.Now() - start)
}

// chargeMetadata applies the personality-specific metadata cost of a
// flush.
func (fs *FS) chargeMetadata(clk *sim.Clock, randomBlocks, seqBlocks int) {
	c := fs.costs
	start := clk.Now()
	defer func() {
		if fs.Buckets != nil {
			fs.Buckets.Add("file system", clk.Now()-start)
		}
	}()
	switch fs.kind {
	case FFS:
		clk.Advance(c.JournalCommit)
		// Random blocks: cylinder-group and indirect-block updates,
		// batched by the journal past FFSMetaBatch.
		full := randomBlocks
		if full > c.FFSMetaBatch {
			full = c.FFSMetaBatch
		}
		clk.Advance(time.Duration(full) * c.FFSMetaPerBlock)
		clk.Advance(time.Duration(randomBlocks-full) * c.FFSMetaPerBlockBatched)
		// Sequential blocks: cheap per-block bookkeeping, capped
		// (journal batching).
		seq := seqBlocks
		if seq > 256 {
			seq = 256
		}
		clk.Advance(time.Duration(seq) * 2 * time.Microsecond)
	case CoWFS:
		clk.Advance(c.ZFSTxgFixed)
		full := randomBlocks
		if full > c.ZFSIndirectBatch {
			full = c.ZFSIndirectBatch
		}
		clk.Advance(time.Duration(full) * c.ZFSIndirectPerBlock)
		clk.Advance(time.Duration(randomBlocks-full) * c.ZFSIndirectPerBlockBatched)
		seq := seqBlocks
		if seq > 256 {
			seq = 256
		}
		clk.Advance(time.Duration(seq) * 2200 * time.Nanosecond)
	}
}
