package topo

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// encodeString renders a tree to its canonical JSON, the bit-identity
// yardstick of the round-trip tests.
func encodeString(t *testing.T, tr *tree.Tree) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// An identity diff reproduces the tree bit-identically (IDs, kinds,
// names, bandwidths) with an identity remap.
func TestApplyIdentity(t *testing.T) {
	for _, tr := range []*tree.Tree{
		tree.Star(5, 8),
		tree.SCICluster(3, 4, 16, 8),
		tree.Caterpillar(4, 3, 8, 4),
		tree.Random(rand.New(rand.NewSource(3)), 20, 4, 0.4, 8),
	} {
		nt, m, err := Apply(tr, Diff{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encodeString(t, nt), encodeString(t, tr); got != want {
			t.Fatalf("identity diff changed the tree:\n%s\nwant:\n%s", got, want)
		}
		if !m.Identity() {
			t.Fatal("identity diff produced a non-identity remap")
		}
	}
}

// Removing a leaf drops exactly that processor; every other node keeps
// its kind, name and bandwidth, and the remap is a consistent bijection
// between survivors.
func TestApplyRemoveLeaf(t *testing.T) {
	tr := tree.SCICluster(3, 4, 16, 8)
	victim := tr.Leaves()[5]
	nt, m, err := Apply(tr, Diff{Remove: []tree.NodeID{victim}})
	if err != nil {
		t.Fatal(err)
	}
	if nt.Len() != tr.Len()-1 || nt.NumEdges() != tr.NumEdges()-1 {
		t.Fatalf("got %d nodes / %d edges, want %d / %d", nt.Len(), nt.NumEdges(), tr.Len()-1, tr.NumEdges()-1)
	}
	if m.Node[victim] != tree.None {
		t.Fatalf("victim still mapped to %d", m.Node[victim])
	}
	for v := 0; v < tr.Len(); v++ {
		id := tree.NodeID(v)
		nv := m.Node[v]
		if id == victim {
			continue
		}
		if nv == tree.None {
			t.Fatalf("survivor %d unmapped", v)
		}
		if m.NodeBack[nv] != id {
			t.Fatalf("NodeBack[%d] = %d, want %d", nv, m.NodeBack[nv], v)
		}
		if nt.Kind(nv) != tr.Kind(id) || nt.NameRaw(nv) != tr.NameRaw(id) || nt.NodeBandwidth(nv) != tr.NodeBandwidth(id) {
			t.Fatalf("node %d changed identity across the remap", v)
		}
	}
	for e := 0; e < tr.NumEdges(); e++ {
		id := tree.EdgeID(e)
		ne := m.Edge[e]
		u, v := tr.Endpoints(id)
		if u == victim || v == victim {
			if ne != tree.NoEdge {
				t.Fatalf("victim's switch %d survived as %d", e, ne)
			}
			continue
		}
		if ne == tree.NoEdge {
			t.Fatalf("surviving edge %d unmapped", e)
		}
		if m.EdgeBack[ne] != id {
			t.Fatalf("EdgeBack[%d] = %d, want %d", ne, m.EdgeBack[ne], e)
		}
		nu, nv := nt.Endpoints(ne)
		if nu != m.Node[u] || nv != m.Node[v] || nt.EdgeBandwidth(ne) != tr.EdgeBandwidth(id) {
			t.Fatalf("edge %d changed identity across the remap", e)
		}
	}
}

// Removing a bus removes its whole hanging subtree, and a bus orphaned
// down to one incident switch is pruned, cascading.
func TestApplyRemoveSubtreeAndCascade(t *testing.T) {
	// top(0) — ringA(1){p2,p3} , ringB(4){p5} — removing p5 leaves ringB a
	// bus leaf, which must cascade away.
	b := tree.NewBuilder()
	top := b.AddBus("top", 16)
	ringA := b.AddBus("ringA", 8)
	b.Connect(top, ringA, 8)
	p2 := b.AddProcessor("p2")
	b.Connect(ringA, p2, 1)
	p3 := b.AddProcessor("p3")
	b.Connect(ringA, p3, 1)
	ringB := b.AddBus("ringB", 8)
	b.Connect(top, ringB, 8)
	p5 := b.AddProcessor("p5")
	b.Connect(ringB, p5, 1)
	tr := b.MustBuildHBN()

	nt, m, err := Apply(tr, Diff{Remove: []tree.NodeID{p5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Node[ringB] != tree.None {
		t.Fatal("orphaned ringB not pruned")
	}
	// The cascade continues: with ringB gone, top is down to one switch
	// and is degenerate too, leaving ringA{p2,p3}.
	if m.Node[top] != tree.None {
		t.Fatal("pass-through top bus not pruned")
	}
	if nt.Len() != 3 {
		t.Fatalf("got %d nodes, want 3", nt.Len())
	}
	if err := nt.ValidateHBN(); err != nil {
		t.Fatal(err)
	}

	// Removing the whole ringA subtree via its bus cascades top and ringB
	// away as well (each ends up with one switch), leaving p5 alone — a
	// valid single-processor network.
	nt2, m2, err := Apply(tr, Diff{Remove: []tree.NodeID{ringA}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []tree.NodeID{ringA, p2, p3} {
		if m2.Node[v] != tree.None {
			t.Fatalf("node %d of the removed subtree survived", v)
		}
	}
	if nt2.Len() != 1 || m2.Node[p5] != 0 {
		t.Fatalf("got %d nodes (p5 -> %d), want p5 alone", nt2.Len(), m2.Node[p5])
	}
}

// Grafting appends new IDs after the survivors, supports nested grafts
// (a bus with processors under it), and prunes grafted buses that end up
// childless.
func TestApplyGraft(t *testing.T) {
	tr := tree.Star(3, 8) // hub(0), p1..p3
	d := Diff{Add: []Graft{
		{Kind: tree.Bus, Name: "ext", Bandwidth: 4, Parent: 0, SwitchBandwidth: 2},
		{Kind: tree.Processor, Name: "n0", ParentAdded: 1},
		{Kind: tree.Processor, Name: "n1", ParentAdded: 1},
		{Kind: tree.Processor, Name: "direct", Parent: 0},
	}}
	nt, m, err := Apply(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	if nt.Len() != tr.Len()+4 {
		t.Fatalf("got %d nodes, want %d", nt.Len(), tr.Len()+4)
	}
	ext := m.Added[0]
	if ext != tree.NodeID(tr.Len()) {
		t.Fatalf("first graft got ID %d, want %d", ext, tr.Len())
	}
	if nt.Kind(ext) != tree.Bus || nt.NodeBandwidth(ext) != 4 || nt.NameRaw(ext) != "ext" {
		t.Fatal("grafted bus lost its spec")
	}
	e, ok := nt.EdgeBetween(0, ext)
	if !ok || nt.EdgeBandwidth(e) != 2 {
		t.Fatal("graft switch missing or wrong bandwidth")
	}
	for i := 1; i <= 3; i++ {
		if m.Added[i] == tree.None {
			t.Fatalf("graft %d pruned", i)
		}
	}
	if err := nt.ValidateHBN(); err != nil {
		t.Fatal(err)
	}

	// Replacing all capacity under a bus in one diff: the old bus ends up
	// degenerate and is pruned, and the surviving grafted subtree takes
	// its place as the whole network (found in review: this used to hit
	// an "internal error" because the graft's parent vanished).
	star := tree.Star(2, 8) // hub(0), p1, p2
	ntr, mr, err := Apply(star, Diff{
		Remove: []tree.NodeID{1, 2},
		Add: []Graft{
			{Kind: tree.Bus, Name: "g", Bandwidth: 4, Parent: 0},
			{Kind: tree.Processor, Name: "q0", ParentAdded: 1},
			{Kind: tree.Processor, Name: "q1", ParentAdded: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ntr.Len() != 3 || mr.Node[0] != tree.None || mr.Added[0] != 0 {
		t.Fatalf("replacement graft: %d nodes, hub -> %v, g -> %v", ntr.Len(), mr.Node[0], mr.Added[0])
	}
	if err := ntr.ValidateHBN(); err != nil {
		t.Fatal(err)
	}
	// Grafting while removing a sibling subtree keeps the surviving
	// parent (its ancestor edge plus the graft keep it non-degenerate).
	twoRings := tree.SCICluster(2, 2, 16, 8)
	ntr2, mr2, err := Apply(twoRings, Diff{
		Remove: []tree.NodeID{1}, // ring0 and its processors
		Add: []Graft{
			{Kind: tree.Bus, Name: "g", Bandwidth: 4, Parent: 0},
			{Kind: tree.Processor, ParentAdded: 1},
		},
	})
	if err != nil {
		t.Fatalf("graft under surviving top must work: %v", err)
	}
	if mr2.Node[0] == tree.None || mr2.Added[0] == tree.None {
		t.Fatal("top or graft unexpectedly pruned")
	}
	if err := ntr2.ValidateHBN(); err != nil {
		t.Fatal(err)
	}

	// A grafted bus with no processors is pruned away again.
	nt2, m2, err := Apply(tr, Diff{Add: []Graft{{Kind: tree.Bus, Name: "empty", Parent: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Added[0] != tree.None {
		t.Fatal("childless grafted bus survived")
	}
	if nt2.Len() != tr.Len() {
		t.Fatalf("got %d nodes, want %d", nt2.Len(), tr.Len())
	}
}

// Bandwidth-only diffs keep every ID (identity remap) and change exactly
// the listed bandwidths; duplicates resolve to the last entry.
func TestApplyBandwidth(t *testing.T) {
	tr := tree.SCICluster(2, 3, 16, 8)
	ring := tree.NodeID(1)
	uplink, ok := tr.EdgeBetween(0, ring)
	if !ok {
		t.Fatal("no uplink edge")
	}
	nt, m, err := Apply(tr, Diff{
		SetBusBandwidth:    []BusBandwidth{{Node: ring, Bandwidth: 99}, {Node: ring, Bandwidth: 4}},
		SetSwitchBandwidth: []SwitchBandwidth{{Edge: uplink, Bandwidth: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Identity() {
		t.Fatal("bandwidth diff changed IDs")
	}
	if nt.NodeBandwidth(ring) != 4 {
		t.Fatalf("ring bandwidth %d, want 4 (last duplicate wins)", nt.NodeBandwidth(ring))
	}
	if nt.EdgeBandwidth(uplink) != 2 {
		t.Fatalf("uplink bandwidth %d, want 2", nt.EdgeBandwidth(uplink))
	}
	if tr.NodeBandwidth(ring) != 16 {
		t.Fatal("Apply mutated the input tree")
	}
}

func TestApplyErrors(t *testing.T) {
	tr := tree.SCICluster(2, 3, 16, 8)
	leaf := tr.Leaves()[0]
	ring := tree.NodeID(1)
	cases := []struct {
		name     string
		d        Diff
		want     string
		sentinel error
	}{
		{"remove root", Diff{Remove: []tree.NodeID{0}}, "cannot be removed", ErrRemoveRoot},
		{"remove out of range", Diff{Remove: []tree.NodeID{99}}, "out of range", ErrRemoveRange},
		{"remove everything", Diff{Remove: []tree.NodeID{1, 5}}, "last processor", ErrNoProcessors},
		{"remove listed twice", Diff{Remove: []tree.NodeID{leaf, leaf}}, "twice", ErrOverlappingRemove},
		{"graft under processor", Diff{Add: []Graft{{Kind: tree.Processor, Parent: leaf}}}, "attach under buses", ErrBadGraft},
		{"graft under removed", Diff{
			Remove: []tree.NodeID{ring},
			Add:    []Graft{{Kind: tree.Processor, Parent: ring}},
		}, "removed by the same diff", ErrBadGraft},
		{"graft forward ref", Diff{Add: []Graft{
			{Kind: tree.Processor, ParentAdded: 2},
			{Kind: tree.Bus, Parent: 0},
		}}, "earlier entry", ErrBadGraft},
		{"set bw on removed edge", Diff{
			Remove:             []tree.NodeID{leaf},
			SetSwitchBandwidth: []SwitchBandwidth{{Edge: mustEdge(t, tr, ring, leaf), Bandwidth: 3}},
		}, "removed", ErrBadBandwidth},
		{"set bus bw on processor", Diff{SetBusBandwidth: []BusBandwidth{{Node: leaf, Bandwidth: 3}}}, "processor", ErrBadBandwidth},
		{"set bw below 1", Diff{SetBusBandwidth: []BusBandwidth{{Node: ring, Bandwidth: 0}}}, "< 1", ErrBadBandwidth},
		// The fat-switch rejection comes from tree validation, not a topo
		// sentinel, so it only pins the message.
		{"graft processor fat switch", Diff{Add: []Graft{
			{Kind: tree.Processor, Parent: 0, SwitchBandwidth: 7},
		}}, "must be 1", nil},
	}
	for _, tc := range cases {
		_, _, err := Apply(tr, tc.d)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Fatalf("%s: error %v does not wrap %v", tc.name, err, tc.sentinel)
		}
	}
}

// Migrate rejects malformed inputs with errors, never panics: stale
// copy-set node IDs (e.g. taken from a post-diff tree) are the easy
// mistake to make across reconfigures.
func TestMigrateRejectsStaleCopySets(t *testing.T) {
	tr := tree.Star(3, 8)
	w := workload.New(1, tr.Len())
	_, err := Migrate(tr, Diff{}, w, [][]tree.NodeID{{tree.NodeID(tr.Len())}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("got %v, want a stale-ID error", err)
	}
	if _, err := Migrate(tr, Diff{}, nil, nil, Options{}); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, err := Migrate(tr, Diff{}, workload.New(1, 99), nil, Options{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func mustEdge(t *testing.T, tr *tree.Tree, u, v tree.NodeID) tree.EdgeID {
	t.Helper()
	e, ok := tr.EdgeBetween(u, v)
	if !ok {
		t.Fatalf("no edge between %d and %d", u, v)
	}
	return e
}

// Remap.Workload drops removed rows and carries every surviving one; the
// remapped edge-load projection conserves surviving entries.
func TestRemapWorkloadAndLoads(t *testing.T) {
	tr := tree.SCICluster(2, 3, 16, 8)
	victim := tr.Leaves()[4]
	w := workload.New(2, tr.Len())
	for x := 0; x < 2; x++ {
		for _, v := range tr.Leaves() {
			w.AddReads(x, v, int64(10*x+int(v)))
			w.AddWrites(x, v, int64(x+1))
		}
	}
	_, m, err := Apply(tr, Diff{Remove: []tree.NodeID{victim}})
	if err != nil {
		t.Fatal(err)
	}
	nw := m.Workload(w)
	for x := 0; x < 2; x++ {
		for v := 0; v < tr.Len(); v++ {
			id := tree.NodeID(v)
			if id == victim {
				continue
			}
			if nv := m.Node[v]; nv != tree.None && nw.At(x, nv) != w.At(x, id) {
				t.Fatalf("object %d node %d row changed across the remap", x, v)
			}
		}
		lost := w.At(x, victim)
		if nw.TotalWeight(x) != w.TotalWeight(x)-lost.Total() {
			t.Fatalf("object %d: weight %d, want %d", x, nw.TotalWeight(x), w.TotalWeight(x)-lost.Total())
		}
	}

	loads := make([]int64, tr.NumEdges())
	for e := range loads {
		loads[e] = int64(100 + e)
	}
	nl := m.EdgeLoads(loads)
	var before, after, dropped int64
	for e, l := range loads {
		before += l
		if m.Edge[e] == tree.NoEdge {
			dropped += l
		}
	}
	for _, l := range nl {
		after += l
	}
	if after != before-dropped {
		t.Fatalf("edge loads: after %d, want %d-%d", after, before, dropped)
	}
}

// Projecting a workload one row class at a time (the per-shard form a
// staged reconfiguration uses) assembles exactly the full projection, and
// each call leaves the other classes' rows untouched.
func TestRemapWorkloadRowsAssembleWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 11
	w := randomWorkload(rng, tr, objects)
	_, m, err := Apply(tr, Diff{Remove: []tree.NodeID{tr.Leaves()[2], tr.Leaves()[7]}})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Workload(w)
	for _, stride := range []int{1, 3, 4, 16} {
		nw := workload.New(objects, len(m.NodeBack))
		for first := 0; first < stride; first++ {
			m.WorkloadRows(nw, w, first, stride)
			for x := 0; x < objects; x++ {
				done := x%stride <= first
				for v := range nw.Row(x) {
					id := tree.NodeID(v)
					if done && nw.At(x, id) != want.At(x, id) || !done && nw.At(x, id) != (workload.Access{}) {
						t.Fatalf("stride %d after class %d: object %d node %d is %+v", stride, first, x, v, nw.At(x, id))
					}
				}
			}
		}
	}
}
