package serve

import (
	"math/rand"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// driftServeAll ingests the trace in 500-request batches and returns the
// cluster; everything here is deterministic in (trace, opts).
func driftServeAll(t *testing.T, tr *tree.Tree, objects int, trace []workload.TraceEvent, opts Options) *Cluster {
	t.Helper()
	c, err := NewCluster(tr, objects, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(trace); i += 500 {
		if _, err := c.Ingest(trace[i:min(i+500, len(trace))]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// driftFixOptions is the PR 8 fix over a cadence-only configuration: the
// drift trigger armed at a few checks per old epoch, the fallback cadence
// stretched 5x (the trigger catches real shifts; every cadence adoption
// churns copy sets whether or not traffic moved), bandwidth-scaled
// replication budgets and a lazy write-contraction budget.
func driftFixOptions(cadenceOnly Options) Options {
	o := cadenceOnly
	o.EpochRequests = 5 * cadenceOnly.EpochRequests
	o.DriftThreshold = 0.15
	o.DriftCheckRequests = cadenceOnly.EpochRequests / 16
	o.BandwidthAware = true
	o.WriteBudget = o.Threshold
	return o
}

// Diurnal is the scenario where cadence-only epoch re-solve has lost to
// the no-re-solve baseline since PR 3: the activity window drifts
// continuously, so every periodic snapshot lags the sun and each adoption
// moves copies to where traffic just was. The drift trigger plus the PR 8
// budgets must flip that loss to a clear win, not narrow it. All three
// runs are pinned (fixed seed, deterministic ingest), so the comparisons
// are exact, not statistical.
func TestDriftTriggerFlipsDiurnalResolveLoss(t *testing.T) {
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 24
	trace := workload.Diurnal(rand.New(rand.NewSource(1)), tr, objects, 30000, 10000, 0.08)

	cadenceOnly := Options{Shards: 4, EpochRequests: 1000, Threshold: 6}
	noResolve := Options{Shards: 4, Threshold: 6}

	cad := driftServeAll(t, tr, objects, trace, cadenceOnly)
	base := driftServeAll(t, tr, objects, trace, noResolve)
	fixed := driftServeAll(t, tr, objects, trace, driftFixOptions(cadenceOnly))

	cm, bm, fm := cad.MaxEdgeLoad(), base.MaxEdgeLoad(), fixed.MaxEdgeLoad()
	t.Logf("diurnal max edge load: cadence-only %d, no-re-solve %d, drift fix %d (%d drift epochs)",
		cm, bm, fm, fixed.Stats().DriftEpochs)
	if cm < bm {
		t.Fatalf("precondition lost: cadence-only re-solve (%d) no longer loses to no-re-solve (%d); update the pinned scenario", cm, bm)
	}
	if fm >= bm {
		t.Fatalf("drift fix should flip the diurnal re-solve loss to a win: %d >= no-re-solve %d", fm, bm)
	}
	if fm >= cm {
		t.Fatalf("drift fix should beat cadence-only re-solve: %d >= %d", fm, cm)
	}
	if fixed.Stats().DriftEpochs == 0 {
		t.Fatal("the drift trigger never fired")
	}
}

// Hotspot-migration is the other documented loss: at scale, per-object
// re-solves on near-identical frequency rows stack every object's copies
// onto the hot region, while the baseline's stale replicas act as
// incidental load spreading. At this pinned seed the cadence-only run
// still loses to no-re-solve; the fix must win against both.
func TestDriftTriggerFlipsHotspotResolveLoss(t *testing.T) {
	tr := tree.SCICluster(8, 8, 32, 16)
	const objects = 128
	trace := workload.HotspotMigration(rand.New(rand.NewSource(4)), tr, objects, 60000, 3, 0.7, 0.05)

	cadenceOnly := Options{Shards: 4, EpochRequests: 1200, Threshold: 8, DecayShift: 1}
	noResolve := Options{Shards: 4, Threshold: 8, DecayShift: 1}

	cad := driftServeAll(t, tr, objects, trace, cadenceOnly)
	base := driftServeAll(t, tr, objects, trace, noResolve)
	fixed := driftServeAll(t, tr, objects, trace, driftFixOptions(cadenceOnly))

	cm, bm, fm := cad.MaxEdgeLoad(), base.MaxEdgeLoad(), fixed.MaxEdgeLoad()
	t.Logf("hotspot max edge load: cadence-only %d, no-re-solve %d, drift fix %d (%d drift epochs)",
		cm, bm, fm, fixed.Stats().DriftEpochs)
	if cm < bm {
		t.Fatalf("precondition lost: cadence-only re-solve (%d) no longer loses to no-re-solve (%d); update the pinned scenario", cm, bm)
	}
	if fm >= bm {
		t.Fatalf("drift fix should flip the hotspot re-solve loss to a win: %d >= no-re-solve %d", fm, bm)
	}
	if fm >= cm {
		t.Fatalf("drift fix should beat cadence-only re-solve: %d >= %d", fm, cm)
	}
	if fixed.Stats().DriftEpochs == 0 {
		t.Fatal("the drift trigger never fired")
	}
}

// An epoch pass measures its drift while folding it: the magnitude it logs
// must equal, bit for bit, the trigger's pre-check (driftMagnitudeLocked)
// taken just before the pass, with the drift trigger off and armed.
func TestEpochDriftMagnitudeMatchesPreCheck(t *testing.T) {
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 24
	trace := workload.Diurnal(rand.New(rand.NewSource(2)), tr, objects, 12000, 4000, 0.08)
	cadenceOnly := Options{Shards: 4, EpochRequests: 1000, Threshold: 6, DecayShift: 1}
	for _, opts := range []Options{cadenceOnly, driftFixOptions(cadenceOnly)} {
		c, err := NewCluster(tr, objects, opts)
		if err != nil {
			t.Fatal(err)
		}
		passes := 0
		for i := 0; i < len(trace); i += 700 {
			if _, err := c.Ingest(trace[i:min(i+700, len(trace))]); err != nil {
				t.Fatal(err)
			}
			c.epochMu.Lock()
			want := c.driftMagnitudeLocked()
			c.epochMu.Unlock()
			before := len(c.EpochLog())
			if err := c.ResolveNow(); err != nil {
				t.Fatal(err)
			}
			log := c.EpochLog()
			if len(log) == before {
				continue // nothing drifted since the last pass
			}
			if got := log[len(log)-1].DriftMagnitude; got != want {
				t.Fatalf("DriftThreshold %v, chunk %d: pass logged drift %v, pre-check measured %v", opts.DriftThreshold, i/700, got, want)
			}
			if want > 0 {
				passes++
			}
		}
		if passes == 0 {
			t.Fatalf("DriftThreshold %v: no pass measured any drift", opts.DriftThreshold)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
