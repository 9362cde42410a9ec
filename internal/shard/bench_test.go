package shard

import (
	"fmt"
	"testing"

	"memsnap/internal/core"
)

// The two table operations a shard worker spends its apply time in,
// against a 1 MiB region holding 2,048 keys (load factor 1/8, every
// page resident and already dirty): no fault and no commit is timed,
// only the probe and the slot update. Both allocate nothing; the
// AllocsPerRun tests beside them gate that.

// benchTable returns a formatted table preloaded with n keys, with the
// keys and their hashes.
func benchTable(n int) (*table, [][]byte, []uint64) {
	const regionBytes = 1 << 20
	sys, err := core.NewSystem(core.Options{})
	if err != nil {
		panic(err)
	}
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, RegionName(0), regionBytes)
	if err != nil {
		panic(err)
	}
	t := &table{ctx: ctx, region: r}
	t.format(0, 1, regionBytes, 0)
	keys := make([][]byte, n)
	hashes := make([]uint64, n)
	for i := range keys {
		name := fmt.Sprintf("key-%06d", i)
		if keys[i], err = composeKey("bench", name); err != nil {
			panic(err)
		}
		hashes[i] = fnv1a("bench", name)
		if _, _, err := t.put(hashes[i], keys[i], uint64(i)); err != nil {
			panic(err)
		}
	}
	return t, keys, hashes
}

var benchValue uint64

// tableAdd returns a closure incrementing the next key per call.
func tableAdd() func() {
	t, keys, hashes := benchTable(2048)
	i := 0
	return func() {
		i = (i + 1) % len(keys)
		v, err := t.add(hashes[i], keys[i], 1)
		if err != nil {
			panic(err)
		}
		benchValue = v
	}
}

// tableGet returns a closure reading the next key per call.
func tableGet() func() {
	t, keys, hashes := benchTable(2048)
	i := 0
	return func() {
		i = (i + 1) % len(keys)
		benchValue, _ = t.get(hashes[i], keys[i])
	}
}

func BenchmarkTableAdd(b *testing.B) {
	op := tableAdd()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTableGet(b *testing.B) {
	op := tableGet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestTableSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.AllocsPerRun(2000, tableAdd()) != 0 {
		t.Error("table.add on an existing key allocates")
	}
	if testing.AllocsPerRun(2000, tableGet()) != 0 {
		t.Error("table.get allocates")
	}
}
