package serve

import (
	"runtime"
	"testing"

	"hbn/internal/tree"
)

// liveHeapOf returns the live heap held by build's result. Each reading
// follows two collections: the first only moves sync.Pool contents to the
// victim cache, and earlier tests' pooled scratch freed during build would
// otherwise be subtracted from the result.
func liveHeapOf(build func() any) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return after.HeapAlloc - before.HeapAlloc
}

// A cluster holds three dense objects × nodes matrices whatever its shard
// count: every shard tracker records into the one observed-frequency
// matrix, and no other per-shard state grows with objects × nodes. On the
// write-storm-1k shape (SCI 32×32, 1024 objects; one matrix is 16.5 MiB)
// the live heap of a fresh 64-shard cluster stays within 1.1× of the
// 1-shard cluster's.
func TestClusterFootprintIndependentOfShards(t *testing.T) {
	tr := tree.SCICluster(32, 32, 32, 16)
	const objects = 1024
	heap := func(shards int) uint64 {
		return liveHeapOf(func() any {
			c, err := NewCluster(tr, objects, Options{Shards: shards, Threshold: 3})
			if err != nil {
				t.Fatal(err)
			}
			for si, sh := range c.shards {
				if sh.tracker.Workload() != c.seen {
					t.Fatalf("%d shards: shard %d records into its own matrix", shards, si)
				}
			}
			return c
		})
	}
	one, many := heap(1), heap(64)
	ratio := float64(many) / float64(one)
	t.Logf("live heap after NewCluster: %.1f MiB at 1 shard, %.1f MiB at 64 shards (%.2fx)",
		float64(one)/(1<<20), float64(many)/(1<<20), ratio)
	if ratio > 1.1 {
		t.Fatalf("64-shard cluster holds %.2fx the 1-shard cluster's live heap, want <= 1.1x", ratio)
	}
}
