package serve

import (
	"math/rand"
	"path/filepath"
	"testing"

	"hbn/internal/snapshot"
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

// writeStormCluster is the write-storm-1k shape of the repository
// benchmark (SCI 32×32, 1024 objects, 4 shards, threshold 3, no epoch
// cadence) after serving 200k write-storm events.
func writeStormCluster(b *testing.B) *Cluster {
	b.Helper()
	t := tree.SCICluster(32, 32, 32, 16)
	const objects = 1024
	c, err := NewCluster(t, objects, Options{Shards: 4, Threshold: 3})
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.WriteStorm(rand.New(rand.NewSource(11)), t, objects, 200000, 4, 0.05)
	for lo := 0; lo < len(trace); lo += 1024 {
		if _, err := c.Ingest(trace[lo:min(lo+1024, len(trace))]); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkSnapshotCut measures the in-memory half of Snapshot on the
// write-storm-1k shape: the consistent cut under the ingest gate and the
// image encode. The disk write is left out.
func BenchmarkSnapshotCut(b *testing.B) {
	c := writeStormCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		var st *snapshot.State
		c.epochMu.Lock()
		c.quiesce(func() { st = c.captureLocked() })
		c.epochMu.Unlock()
		size = len(snapshot.Encode(st))
	}
	b.ReportMetric(float64(size), "image-B")
}

// BenchmarkRestore measures Restore of a write-storm-1k image from a
// file: decode, validation, cluster construction and solver re-arming.
func BenchmarkRestore(b *testing.B) {
	path := filepath.Join(b.TempDir(), "snap.hbn")
	if _, err := writeStormCluster(b).Snapshot(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := Restore(path, RestoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}
