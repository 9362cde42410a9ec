package main

import (
	"fmt"
	"io"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/objstore"
	"memsnap/internal/proto"
	"memsnap/internal/replica"
	"memsnap/internal/sim"
)

// Micro passes drive one layer's public functions directly, on one
// thread, in a traced run. They say what a call costs in isolation;
// the counters of the main pass say how often it is made.

const microBatches = 5

// timeCalls returns the median host nanoseconds per call of fn over a
// few batches of n calls; i counts calls across batches.
func timeCalls(n int, fn func(i int)) float64 {
	per := make([]float64, 0, microBatches)
	for b := 0; b < microBatches; b++ {
		start := now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		per = append(per, float64(time.Since(start))/float64(n)) //lint:allow walltime micro passes time host cost per call
	}
	return median(per)
}

// chunkReader serves a byte stream a fixed number of frames at a time,
// as a socket would after the peer flushed that many, and counts the
// Read calls a frame reader needs to consume it.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	for len(r.chunks) > 0 && len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p, r.chunks[0])
	r.chunks[0] = r.chunks[0][n:]
	return n, nil
}

func microProto(g *opGen, out map[string]float64) error {
	const n = 4096
	ks := g.ks
	reqs := make([]proto.Request, n)
	resps := make([]proto.Response, n)
	for i := range reqs {
		o := g.next()
		reqs[i] = proto.Request{ID: uint64(i), Kind: proto.KindGet, Tenant: ks.tenantsB[o.t], Key: ks.keysB[o.k]}
		if !o.get {
			reqs[i].Kind, reqs[i].Value = proto.KindAdd, o.delta
		}
		resps[i] = proto.Response{ID: uint64(i), Found: o.get, Value: o.delta, Epoch: uint64(i)}
	}
	var buf []byte
	var err error
	out["proto.encode_req_ns"] = timeCalls(n, func(i int) {
		if buf, err = proto.AppendRequest(buf[:0], &reqs[i%n]); err != nil {
			panic(err) // the vocabulary is fixed and within wire limits
		}
	})
	out["proto.encode_resp_ns"] = timeCalls(n, func(i int) { buf = proto.AppendResponse(buf[:0], &resps[i%n]) })

	reqFrames, respFrames := make([][]byte, n), make([][]byte, n)
	var reqBytes, respBytes int
	for i := range reqs {
		if reqFrames[i], err = proto.AppendRequest(nil, &reqs[i]); err != nil {
			return err
		}
		respFrames[i] = proto.AppendResponse(nil, &resps[i])
		reqBytes += len(reqFrames[i])
		respBytes += len(respFrames[i])
	}
	out["proto.req_bytes"] = float64(reqBytes) / n
	out["proto.resp_bytes"] = float64(respBytes) / n
	var q proto.Request
	var p proto.Response
	out["proto.decode_req_ns"] = timeCalls(n, func(i int) {
		if err := proto.DecodeRequest(reqFrames[i%n][4:], &q); err != nil {
			panic(err)
		}
	})
	out["proto.decode_resp_ns"] = timeCalls(n, func(i int) {
		if err := proto.DecodeResponse(respFrames[i%n][4:], &p); err != nil {
			panic(err)
		}
	})

	// Frames arrive 16 to a chunk, the pipeline depth: a reader that
	// buffered would need one Read per chunk, 1/16 per frame.
	const perChunk = 16
	var frames, reads int
	var nextNs []float64
	for round := 0; round < microBatches; round++ {
		r := &chunkReader{}
		for i := 0; i < n; i += perChunk {
			var chunk []byte
			for _, f := range reqFrames[i : i+perChunk] {
				chunk = append(chunk, f...)
			}
			r.chunks = append(r.chunks, chunk)
		}
		fr := proto.NewFrameReader(r, 0)
		start := now()
		for i := 0; i < n; i++ {
			if _, err := fr.Next(); err != nil {
				return fmt.Errorf("frame %d: %w", i, err)
			}
		}
		nextNs = append(nextNs, float64(time.Since(start))/n) //lint:allow walltime micro passes time host cost per call
		frames += n
		reads += r.reads
	}
	out["proto.frame_next_ns"] = median(nextNs)
	out["proto.reads_per_frame"] = float64(reads) / float64(frames)
	return nil
}

// microGen times the generator against a no-op sink.
var genSink int

func microGen(g *opGen, out map[string]float64) {
	out["client.gen_ns_per_op"] = timeCalls(20000, func(int) { genSink += g.next().k })
}

// microShardRead times the read path alone: all gets, one blocking
// caller, on the service as the measured phase left it.
func microShardRead(b *kvBench, out map[string]float64) error {
	g := b.gen(1 << 20)
	g.getPct = 100
	var err error
	out["shard.read_path_ns_per_op"] = timeCalls(4000, func(int) {
		if r := b.svc.Do(b.shardOp(g.next())); r.Err != nil || !r.Found {
			err = fmt.Errorf("get failed: found=%v err=%v", r.Found, r.Err)
		}
	})
	return err
}

const microBlocks = 16

// distinct fills idx with distinct values in [0, n).
func distinct(rng *sim.RNG, idx []int64, n int64) {
	for i := range idx {
	draw:
		for {
			idx[i] = rng.Int63n(n)
			for _, q := range idx[:i] {
				if q == idx[i] {
					continue draw
				}
			}
			break
		}
	}
}

func microObjstore(seed uint64, out map[string]float64) error {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 256<<20)
	store, at, err := objstore.Format(costs, arr, 0)
	if err != nil {
		return err
	}
	const blocks = 16384
	obj, at, err := store.CreateObject(at, "bench/obj", blocks*objstore.BlockSize)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	data := make([]byte, objstore.BlockSize)
	writes := make([]objstore.BlockWrite, microBlocks)
	idx := make([]int64, microBlocks)
	commit := func(int) {
		distinct(rng, idx, blocks)
		for i := range writes {
			writes[i] = objstore.BlockWrite{Index: idx[i], Data: data}
		}
		data[0]++
		var done time.Duration
		if _, done, err = obj.Commit(at, writes); err == nil {
			at = done
		}
	}
	// Reach the steady state first: most blocks written once.
	for i := 0; i < 2*blocks/microBlocks; i++ {
		commit(i)
	}
	if err != nil {
		return err
	}
	before, virt0 := arr.Stats(), at
	const n = 400
	perCommit := timeCalls(n, commit)
	if err != nil {
		return err
	}
	after := arr.Stats()
	commits := float64(microBatches * n)
	out["objstore.commit_ns_per_block"] = perCommit / microBlocks
	out["objstore.commit_virt_us"] = us(at-virt0) / commits
	out["objstore.write_amp"] = float64(after.BytesWritten-before.BytesWritten) / (commits * microBlocks * objstore.BlockSize)
	out["objstore.disk_writes_per_commit"] = float64(after.Writes-before.Writes) / commits
	out["objstore.read_block_ns"] = timeCalls(4000, func(int) {
		if _, rerr := obj.ReadBlock(at, rng.Int63n(blocks), data); rerr != nil {
			err = rerr
		}
	})
	return err
}

func microDisk(seed uint64, out map[string]float64) {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 256<<20)
	rng := sim.NewRNG(seed)
	const blocks = 65536
	buf := make([]byte, microBlocks*core.PageSize)
	extents := make([]disk.Extent, microBlocks)
	idx := make([]int64, microBlocks)
	var at, virtV, virtW time.Duration
	perV := timeCalls(2000, func(int) {
		distinct(rng, idx, blocks)
		for i := range extents {
			extents[i] = disk.Extent{Offset: idx[i] * core.PageSize, Data: buf[i*core.PageSize : (i+1)*core.PageSize]}
		}
		done := arr.WriteV(at, extents)
		virtV += done - at
		at = done
	})
	timeCalls(2000, func(int) {
		done := arr.Write(at, rng.Int63n(blocks)*core.PageSize, buf[:core.PageSize])
		virtW += done - at
		at = done
	})
	out["disk.writev_ns_per_extent"] = perV / microBlocks
	out["disk.writev_virt_us_64k"] = us(virtV) / (microBatches * 2000)
	out["disk.write_virt_us_4k"] = us(virtW) / (microBatches * 2000)
	out["disk.read_ns_4k"] = timeCalls(4000, func(int) {
		at = arr.Read(at, rng.Int63n(blocks)*core.PageSize, buf[:core.PageSize])
	})
}

// microReplicaApply times Follower.Apply on 16-page deltas, each
// applied as one synchronous uCheckpoint on the follower's own store.
func microReplicaApply(seed uint64, regionBytes int64, out map[string]float64) error {
	sys, err := core.NewSystem(core.Options{CPUs: 1, DiskBytesEach: 512 << 20})
	if err != nil {
		return err
	}
	fol, err := replica.NewFollower(sys, replica.FollowerConfig{Shards: 1, RegionBytes: regionBytes})
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	pages := regionBytes/core.PageSize - 1
	data := make([]byte, core.PageSize)
	delta := replica.Delta{Pages: make([]core.CommittedPage, microBlocks)}
	idx := make([]int64, microBlocks)
	var at time.Duration
	var bad error
	out["replica.apply_ns_per_delta"] = timeCalls(400, func(i int) {
		distinct(rng, idx, pages)
		for j := range delta.Pages {
			delta.Pages[j] = core.CommittedPage{Index: 1 + idx[j], Data: data} // page 0 is the manifest
		}
		data[0]++
		delta.Seq = uint64(i + 1)
		var st replica.ApplyStatus
		if at, st = fol.Apply(at, &delta); st.Code != replica.ApplyOK {
			bad = fmt.Errorf("apply seq %d: code %d", delta.Seq, st.Code)
		}
	})
	return bad
}
