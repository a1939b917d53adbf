package serve

import (
	"math/rand"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// benchIngest measures steady-state Cluster.Ingest throughput on the
// drifting-Zipf trace (1024-request batches, threshold 8, epoch re-solve
// off).
func benchIngest(b *testing.B, opts Options) {
	b.Helper()
	t := tree.SCICluster(8, 8, 32, 16)
	const objects, batch = 256, 1024
	trace := workload.DriftingZipf(rand.New(rand.NewSource(2000)), t, objects, 200000, 6, 1.0, 0.03)
	c, err := NewCluster(t, objects, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if _, err := c.Ingest(trace[n : n+batch]); err != nil {
			b.Fatal(err)
		}
		n = (n + batch) % (len(trace) - batch)
	}
}

// BenchmarkIngestBatch1024 is the serving hot path (per-shard ServeBatch
// and RecordBatch, pooled partition scratch) with telemetry enabled, as
// it always is outside tests. Allocations must stay ~0 (guarded by
// TestIngestSteadyAllocs).
func BenchmarkIngestBatch1024(b *testing.B) {
	benchIngest(b, Options{Shards: 1, Threshold: 8})
}

// BenchmarkIngestBatch1024Bare is the same path with telemetry disabled.
// CI compares it against BenchmarkIngestBatch1024 and fails if the
// telemetry costs more than 3% of ingest throughput.
func BenchmarkIngestBatch1024Bare(b *testing.B) {
	benchIngest(b, withoutTelemetry(Options{Shards: 1, Threshold: 8}))
}
