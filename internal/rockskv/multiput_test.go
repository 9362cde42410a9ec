package rockskv

import (
	"fmt"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// MultiPut commits a batch of writes as one durable unit (RocksDB's
// WriteCommitted transaction path: all changes reach the MemTable at
// commit, §7.2).
func (s *Session) MultiPut(kvs []KV) error {
	db := s.db
	s.clk.Advance(db.costs.KVOpCost * time.Duration(len(kvs)))
	switch db.mode {
	case ModeWAL:
		db.lock.Lock(s.clk)
		defer db.lock.Unlock(s.clk)
		for _, kv := range kvs {
			rec := encodeRecord(kv.Key, kv.Value, false)
			db.log.Append(s.clk, rec)
		}
		db.log.Sync(s.clk)
		for _, kv := range kvs {
			db.mem.put(kv.Key, kv.Value, false)
		}
		s.maybeFlushLocked()
		return nil
	case ModeMemSnap:
		return db.plist.multiPut(s.ctx, kvs, &db.lock, &db.pageLocks)
	case ModeAurora:
		for _, kv := range kvs {
			db.lock.Lock(s.clk)
			db.aurMem.put(kv.Key, kv.Value, false)
			s.auroraMirror(kv.Key, kv.Value, false)
			db.lock.Unlock(s.clk)
		}
		db.aur.Checkpoint(s.clk)
		return nil
	}
	return fmt.Errorf("rockskv: bad mode")
}

// multiPut applies a batch under one structure-lock critical section
// and persists once (WriteCommitted). Holding the structure lock
// across the whole batch keeps page-lock acquisition globally ordered
// (no thread ever waits for the structure lock while holding page
// locks), which rules out deadlock between concurrent batches.
func (p *plist) multiPut(ctx *core.Context, kvs []KV, structLock *sim.VLock, pageLocks *[1024]sim.VLock) error {
	clk := ctx.Clock()
	var locked []*sim.VLock
	held := map[*sim.VLock]bool{}
	structLock.Lock(clk)
	for _, kv := range kvs {
		ls, err := p.apply(ctx, kv.Key, kv.Value, false, pageLocks, held)
		if err != nil {
			structLock.Unlock(clk)
			for _, l := range locked {
				l.Unlock(clk)
			}
			return err
		}
		locked = append(locked, ls...)
	}
	structLock.Unlock(clk)
	_, err := ctx.Persist(p.region, core.MSSync)
	for _, l := range locked {
		l.Unlock(clk)
	}
	return err
}
