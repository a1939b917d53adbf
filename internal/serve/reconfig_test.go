package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hbn/internal/core"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// ingestAll feeds a trace in fixed batches.
func ingestAll(t *testing.T, c *Cluster, trace []Request, batch int) {
	t.Helper()
	for lo := 0; lo < len(trace); lo += batch {
		hi := min(lo+batch, len(trace))
		if _, err := c.Ingest(trace[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
}

// An identity Reconfigure is bit-identical to an ordinary epoch pass: two
// clusters serve the same trace, one reconfigures with an empty diff, the
// other runs ResolveNow, and their loads, copy sets and movement accounts
// match exactly.
func TestReconfigureIdentityMatchesEpochPass(t *testing.T) {
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 24
	trace := workload.DriftingZipf(rand.New(rand.NewSource(21)), tr, objects, 6000, 4, 1.0, 0.05)

	mk := func() *Cluster {
		c, err := NewCluster(tr, objects, Options{Shards: 3, Threshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, c, trace, 256)
		return c
	}
	c1, c2 := mk(), mk()
	rs, err := c1.Reconfigure(topo.Diff{})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Remap.Identity() {
		t.Fatal("identity diff produced non-identity remap")
	}
	if rs.Recovered != 0 || rs.RemovedNodes != 0 || rs.AddedNodes != 0 {
		t.Fatalf("identity reconfigure reported changes: %+v", rs)
	}
	if err := c2.ResolveNow(); err != nil {
		t.Fatal(err)
	}

	if !slices.Equal(c1.EdgeLoad(), c2.EdgeLoad()) {
		t.Fatal("edge loads differ from the epoch pass")
	}
	if !slices.Equal(c1.ServiceLoad(), c2.ServiceLoad()) {
		t.Fatal("service loads differ from the epoch pass")
	}
	for x := 0; x < objects; x++ {
		if !slices.Equal(c1.Copies(x), c2.Copies(x)) {
			t.Fatalf("object %d: copies %v != %v", x, c1.Copies(x), c2.Copies(x))
		}
	}
	s1, s2 := c1.Stats(), c2.Stats()
	if s1.Requests != s2.Requests || s1.ServiceCost != s2.ServiceCost {
		t.Fatalf("request accounting differs: %+v vs %+v", s1, s2)
	}
	if rs.Moved != s2.AdoptMoved {
		t.Fatalf("migration moved %d, epoch adoption moved %d", rs.Moved, s2.AdoptMoved)
	}
	if s1.Reconfigs != 1 || s2.Reconfigs != 0 {
		t.Fatalf("reconfig counters: %d / %d", s1.Reconfigs, s2.Reconfigs)
	}
}

// A rejected diff must not poison the epoch machinery: the failed
// Reconfigure has already folded outstanding drift into the solver
// workload, so the solver is disarmed and the next pass re-solves from
// scratch — ending bit-identical to a cluster that never saw the failed
// call (found in review: the drift fold used to be dropped on the error
// path, leaving mutated rows the incremental Resolve was never told
// about). Checked for every kind of rejected diff.
func TestReconfigureFailureLeavesClusterConsistent(t *testing.T) {
	tr := tree.SCICluster(3, 4, 16, 8)
	leaf := tr.Leaves()[0]
	cases := []struct {
		name string
		d    topo.Diff
		want error
	}{
		{"remove root", topo.Diff{Remove: []tree.NodeID{0}}, topo.ErrRemoveRoot},
		{"remove out of range", topo.Diff{Remove: []tree.NodeID{99}}, topo.ErrRemoveRange},
		{"overlapping subtrees", topo.Diff{Remove: []tree.NodeID{1, leaf}}, topo.ErrOverlappingRemove},
		{"remove all processors", topo.Diff{Remove: []tree.NodeID{1, 6, 11}}, topo.ErrNoProcessors},
		{"bad graft", topo.Diff{Add: []topo.Graft{{Kind: tree.Processor, Parent: leaf}}}, topo.ErrBadGraft},
		{"bad bandwidth", topo.Diff{
			SetBusBandwidth: []topo.BusBandwidth{{Node: leaf, Bandwidth: 3}},
		}, topo.ErrBadBandwidth},
	}
	for _, tc := range cases {
		c1, c2 := armedDriftCluster(t, tr), armedDriftCluster(t, tr)
		if _, err := c1.Reconfigure(tc.d); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		requireSameAfterResolve(t, tc.name, c1, c2)
	}
}

// armedDriftCluster serves a drifting trace on tr with the incremental
// solver armed by a successful pass mid-trace and fresh drift left
// outstanding — the state a failed reconfigure's drift fold corrupts
// unless the call disarms the solver.
func armedDriftCluster(t *testing.T, tr *tree.Tree) *Cluster {
	t.Helper()
	const objects = 20
	trace := workload.DriftingZipf(rand.New(rand.NewSource(77)), tr, objects, 5000, 4, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 3, Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace[:len(trace)/2], 250)
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace[len(trace)/2:], 250)
	return c
}

// requireSameAfterResolve runs an epoch pass on failed (which saw a
// rejected reconfigure) and on twin (which did not) and requires them to
// end bit-identical.
func requireSameAfterResolve(t *testing.T, name string, failed, twin *Cluster) {
	t.Helper()
	if err := failed.ResolveNow(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := twin.ResolveNow(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(failed.EdgeLoad(), twin.EdgeLoad()) {
		t.Fatalf("%s: edge loads diverged after a failed reconfigure", name)
	}
	for x := 0; x < failed.numObjects; x++ {
		if !slices.Equal(failed.Copies(x), twin.Copies(x)) {
			t.Fatalf("%s: object %d: copies diverged after a failed reconfigure", name, x)
		}
	}
}

// The failover property, quantified over every leaf: after removing any
// single processor mid-traffic, (1) every object still holds at least one
// copy, (2) the served-request count is conserved exactly and the
// aggregate edge load is conserved up to exactly the loads that sat on
// the removed switches, and (3) the adopted placement equals a cold Solve
// on the remapped observed frequencies — so post-migration static
// congestion is the cold re-solve's congestion, with the migration
// movement priced through the adoption account on top.
func TestReconfigureFailoverEveryLeaf(t *testing.T) {
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 18
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 4000, 3, 1.0, 0.08)
	for _, victim := range tr.Leaves() {
		checkColdSolveOracle(t, fmt.Sprintf("victim %d", victim), tr, objects, trace,
			Options{Shards: 2, Threshold: 3}, 200, topo.Diff{Remove: []tree.NodeID{victim}})
	}
}

// checkColdSolveOracle serves trace on a fresh cluster, applies d, and
// checks the failover properties listed on TestReconfigureFailoverEveryLeaf
// plus the stall report and post-swap serving with remapped IDs. The cold
// Solve it compares against is what a stop-the-world migration computes:
// the quiesced cluster's frequencies, remapped, solved from scratch.
func checkColdSolveOracle(t *testing.T, name string, tr *tree.Tree, objects int, trace []Request, opts Options, batch int, d topo.Diff) {
	t.Helper()
	c, err := NewCluster(tr, objects, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace, batch)

	before := c.EdgeLoad()
	var beforeTotal int64
	for _, l := range before {
		beforeTotal += l
	}
	reqBefore := c.Stats().Requests
	hadCopies := make([]bool, objects)
	for x := 0; x < objects; x++ {
		hadCopies[x] = len(c.Copies(x)) > 0
	}

	rs, err := c.Reconfigure(d)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rs.MaxIngestStall <= 0 || rs.MaxIngestStall > rs.Elapsed {
		t.Fatalf("%s: stall %v outside (0, %v]", name, rs.MaxIngestStall, rs.Elapsed)
	}

	// (2) Conservation.
	if got := c.Stats().Requests; got != reqBefore {
		t.Fatalf("%s: requests %d, want %d", name, got, reqBefore)
	}
	var dropped int64
	for e, l := range before {
		if rs.Remap.Edge[e] == tree.NoEdge {
			dropped += l
		}
	}
	if got := c.TotalLoad(); got != beforeTotal-dropped {
		t.Fatalf("%s: total load %d, want %d - %d", name, got, beforeTotal, dropped)
	}
	if dropped != rs.DroppedLoad {
		t.Fatalf("%s: dropped load %d, stats report %d", name, dropped, rs.DroppedLoad)
	}

	// (1) No object is copyless.
	for x := 0; x < objects; x++ {
		if hadCopies[x] && len(c.Copies(x)) == 0 {
			t.Fatalf("%s: object %d lost all copies", name, x)
		}
	}

	// (3) Adopted placement == cold Solve on the remapped frequencies.
	w := workload.New(objects, tr.Len())
	w.AddTrace(trace)
	nw := rs.Remap.Workload(w)
	solver, err := core.NewSolver(c.Tree(), core.Options{MappingRoot: tree.None})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := solver.Solve(nw)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < objects; x++ {
		if nw.TotalWeight(x) == 0 {
			continue // no surviving demand: the object keeps its projection
		}
		var want []tree.NodeID
		for _, cp := range cold.Final.Copies[x] {
			want = append(want, cp.Node)
		}
		slices.Sort(want)
		if got := c.Copies(x); !slices.Equal(got, want) {
			t.Fatalf("%s object %d: adopted %v, cold solve %v", name, x, got, want)
		}
	}

	// Serving continues on the new topology with remapped IDs; IDs
	// outside the new tree are rejected.
	var resumed []Request
	for _, ev := range trace[:400] {
		if nv := rs.Remap.Node[ev.Node]; nv != tree.None {
			resumed = append(resumed, Request{Object: ev.Object, Node: nv, Write: ev.Write})
		}
	}
	if _, err := c.Ingest(resumed); err != nil {
		t.Fatalf("%s: post-failover ingest: %v", name, err)
	}
	if _, err := c.Ingest([]Request{{Object: 0, Node: tree.NodeID(c.Tree().Len())}}); err == nil {
		t.Fatalf("%s: out-of-range node accepted after reconfigure", name)
	}
}

// Scale-out: grafting a new ring keeps every accumulated load (no edges
// are removed), the new processors accept traffic immediately, and a
// bandwidth-only brownout diff changes bandwidths in place with identity
// IDs and bit-identical loads.
func TestReconfigureScaleOutAndBrownout(t *testing.T) {
	tr := tree.SCICluster(2, 4, 16, 8)
	const objects = 12
	trace := workload.DriftingZipf(rand.New(rand.NewSource(9)), tr, objects, 3000, 3, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace, 250)
	beforeTotal := c.TotalLoad()
	reqBefore := c.Stats().Requests

	rs, err := c.Reconfigure(topo.Diff{Add: []topo.Graft{
		{Kind: tree.Bus, Name: "ring2", Bandwidth: 16, Parent: 0, SwitchBandwidth: 8},
		{Kind: tree.Processor, Name: "r2p0", ParentAdded: 1},
		{Kind: tree.Processor, Name: "r2p1", ParentAdded: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.AddedNodes != 3 || rs.RemovedNodes != 0 || rs.Recovered != 0 {
		t.Fatalf("scale-out stats: %+v", rs)
	}
	var afterOld int64
	for e := range tr.NumEdges() {
		afterOld += c.EdgeLoad()[rs.Remap.Edge[e]]
	}
	if got := c.TotalLoad(); got != beforeTotal || afterOld != beforeTotal {
		t.Fatalf("scale-out dropped load: total %d (old-edge share %d), want %d", got, afterOld, beforeTotal)
	}
	if got := c.Stats().Requests; got != reqBefore {
		t.Fatalf("scale-out requests %d, want %d", got, reqBefore)
	}
	// Traffic lands on the grafted processors.
	newLeaf := rs.Remap.Added[1]
	if newLeaf == tree.None || !c.Tree().IsLeaf(newLeaf) {
		t.Fatalf("grafted processor missing: %v", rs.Remap.Added)
	}
	if _, err := c.Ingest([]Request{{Object: 1, Node: newLeaf}, {Object: 1, Node: newLeaf}}); err != nil {
		t.Fatal(err)
	}

	// Brownout on the (current) tree: halve ring0's bus and uplink.
	ring := tree.NodeID(1)
	uplink, _ := c.Tree().EdgeBetween(0, ring)
	ringBW := c.Tree().NodeBandwidth(ring)
	loadsBefore := c.EdgeLoad()
	rs2, err := c.Reconfigure(topo.Diff{
		SetBusBandwidth:    []topo.BusBandwidth{{Node: ring, Bandwidth: ringBW / 2}},
		SetSwitchBandwidth: []topo.SwitchBandwidth{{Edge: uplink, Bandwidth: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rs2.Remap.Identity() {
		t.Fatal("bandwidth diff changed IDs")
	}
	if got := c.Tree().NodeBandwidth(ring); got != ringBW/2 {
		t.Fatalf("ring bandwidth %d, want %d", got, ringBW/2)
	}
	if got := c.Tree().EdgeBandwidth(uplink); got != 4 {
		t.Fatalf("uplink bandwidth %d, want 4", got)
	}
	if !slices.Equal(c.EdgeLoad(), loadsBefore) {
		t.Fatal("bandwidth diff changed loads")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reconfigure(topo.Diff{}); err == nil {
		t.Fatal("reconfigure accepted on a closed cluster")
	}
}
