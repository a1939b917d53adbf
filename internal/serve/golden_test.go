package serve

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hbn/internal/snapshot"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

const (
	goldenPath    = "testdata/cluster-v3.snap"
	goldenObjects = 24
	goldenCut     = 3000
)

// goldenTrace and goldenCluster are the deterministic input of the golden
// image: a 4-shard cluster with every serving option set, served past four
// cadence epochs and then 200 requests more, so the image carries an epoch
// log and non-empty drift queues.
func goldenTrace() (*tree.Tree, []Request) {
	tr := tree.SCICluster(3, 4, 16, 8)
	return tr, workload.DriftingZipf(rand.New(rand.NewSource(23)), tr, goldenObjects, 4500, 3, 1.0, 0.05)
}

func goldenCluster(t *testing.T, tr *tree.Tree, trace []Request) *Cluster {
	t.Helper()
	c, err := NewCluster(tr, goldenObjects, Options{
		Shards: 4, EpochRequests: 700, Threshold: 3, DecayShift: 1,
		BandwidthAware: true, WriteBudget: 2, DriftThreshold: 0.3, DriftCheckRequests: 350,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace[:goldenCut], 200)
	return c
}

// The snapshot format is pinned by an image checked in under testdata: the
// current code restores it to exactly the state of a replayed twin, and
// re-snapshotting the restored cluster reproduces the file byte for byte.
// Both clusters then serve the same suffix identically.
//
// The image is a fixture, written by the commit that defined format 3 and
// never by the code under test. It was made by building goldenCluster in a
// checkout of that commit and calling Snapshot there. Such a rebuild
// differs from the file only in the measured resolve durations
// (ResolveTimeNs, each EpochRec.ResolveNs) and the checksum. A new format
// version needs a new file and new assertions.
func TestSnapshotGoldenImage(t *testing.T) {
	tr, trace := goldenTrace()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(golden[len("HBNSNAP1"):]); v != 3 {
		t.Fatalf("golden image has format version %d, want 3", v)
	}
	st, err := snapshot.Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	drift := 0
	for _, ss := range st.ShardStates {
		drift += len(ss.Drift)
	}
	if len(st.ShardStates) != 4 || st.Epochs < 4 || drift == 0 {
		t.Fatalf("golden image covers too little: %d shards, %d epochs, %d drifted objects",
			len(st.ShardStates), st.Epochs, drift)
	}

	r, _, err := Restore(goldenPath, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	twin := goldenCluster(t, tr, trace)
	compareClusters(t, "golden vs twin", twin, r, goldenObjects, true)

	// Rewind the sequence counter so the new generation carries the
	// golden's number; every other byte must come out as written.
	r.snapSeq--
	again := filepath.Join(t.TempDir(), "again.snap")
	if _, err := r.Snapshot(again); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("re-snapshot of the restored golden differs: %d vs %d bytes", len(got), len(golden))
	}

	ingestAll(t, twin, trace[goldenCut:], 200)
	ingestAll(t, r, trace[goldenCut:], 200)
	if err := twin.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if err := r.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	compareClusters(t, "after suffix", twin, r, goldenObjects, true)
}
