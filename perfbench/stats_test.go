package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hbn/internal/dynamic"
	"hbn/internal/tree"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.995, 100},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	// A raw-sample percentile is not a power-of-two bucket top.
	if got := percentile([]float64{10.8, 10.9, 11.0}, 1); got != 11.0 {
		t.Errorf("p100 = %v, want 11.0", got)
	}
}

func TestMedianAndFasterHalf(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	times := []float64{9, 1, 2, 8, 3, 7, 4, 6}
	if got := fasterHalf(times); got != 2.5 { // median of 1,2,3,4
		t.Errorf("fasterHalf = %v, want 2.5", got)
	}
	if got := fasterHalf([]float64{5, 1, 3}); got != 2 { // median of 1,3
		t.Errorf("fasterHalf odd = %v, want 2", got)
	}
	if times[0] != 9 {
		t.Error("fasterHalf reordered its input")
	}
}

// congestionOf must follow cmd/hbnbench's rule: a switch divides its load
// by its bandwidth, a bus carries half the sum of its incident switch
// loads divided by its bandwidth.
func TestCongestionBusRule(t *testing.T) {
	b := tree.NewBuilder()
	top := b.AddBus("top", 1)
	ring := b.AddBus("ring", 100)
	p0, p1, p2 := b.AddProcessor("p0"), b.AddProcessor("p1"), b.AddProcessor("p2")
	up := b.Connect(top, ring, 10)
	e0 := b.Connect(ring, p0, 1)
	e1 := b.Connect(top, p1, 1)
	e2 := b.Connect(top, p2, 1)
	tr := b.MustBuildHBN()

	loads := make([]int64, tr.NumEdges())
	loads[up], loads[e0], loads[e1], loads[e2] = 4, 1, 1, 1
	// Switches: 4/10, 1/1, 1/1, 1/1. Bus top: (4+1+1)/2/1 = 3.
	if got := congestionOf(tr, loads); got != 3 {
		t.Fatalf("congestion %v, want 3 (the top bus)", got)
	}
	loads[e0] = 5 // the unit switch now dominates: 5/1
	if got := congestionOf(tr, loads); got != 5 {
		t.Fatalf("congestion %v, want 5 (the p0 switch)", got)
	}
	if got := congestionOf(tr, make([]int64, tr.NumEdges())); got != 0 {
		t.Fatalf("congestion of no load %v, want 0", got)
	}
}

// The ratio's numerator and denominator use one cost model: scoring the
// static comparator's own edge loads reproduces its exact congestion.
func TestCongestionMatchesStaticReport(t *testing.T) {
	tr := tree.SCICluster(4, 4, 32, 16)
	for seed := int64(1); seed <= 5; seed++ {
		trace := workload.DriftingZipf(rand.New(rand.NewSource(seed)), tr, 64, 4000, 3, 1.0, 0.1)
		rep, err := dynamic.StaticOffline(tr, 64, trace)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := congestionOf(tr, rep.EdgeLoad), rep.Congestion.Float(); math.Abs(got-want) > 1e-12*want {
			t.Errorf("seed %d: congestionOf %v, report %v", seed, got, want)
		}
	}
}

func TestCheckLedger(t *testing.T) {
	pre := &wire.DaemonStats{Requests: 100, ServiceCost: 40, ServiceLoadSum: 30, DroppedServiceLoad: 10}
	good := &wire.DaemonStats{Requests: 612, ServiceCost: 90, ServiceLoadSum: 85, DroppedServiceLoad: 5}
	acked := ledger{events: 512, cost: 50}
	if err := checkLedger(pre, good, acked); err != nil {
		t.Fatalf("balanced books rejected: %v", err)
	}
	for name, mut := range map[string]func(s *wire.DaemonStats){
		"lost event":      func(s *wire.DaemonStats) { s.Requests-- },
		"extra cost":      func(s *wire.DaemonStats) { s.ServiceCost++; s.ServiceLoadSum++ },
		"open service":    func(s *wire.DaemonStats) { s.ServiceLoadSum-- },
		"dropped too big": func(s *wire.DaemonStats) { s.DroppedServiceLoad++ },
	} {
		post := *good
		mut(&post)
		if err := checkLedger(pre, &post, acked); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSplitByObject(t *testing.T) {
	tr := tree.SCICluster(2, 4, 32, 16)
	trace := workload.DriftingZipf(rand.New(rand.NewSource(3)), tr, 50, 1001, 2, 1.0, 0.2)
	const size = 16
	batches := splitByObject(trace, 2, size)
	if len(batches) != 2 {
		t.Fatalf("%d clients, want 2", len(batches))
	}
	perObject := map[int][]workload.TraceEvent{}
	total := 0
	for c, bs := range batches {
		for k, b := range bs {
			if len(b) == 0 || len(b) > size || (k < len(bs)-1 && len(b) != size) {
				t.Fatalf("client %d batch %d has %d events", c, k, len(b))
			}
			for _, ev := range b {
				if ev.Object%2 != c {
					t.Fatalf("object %d sent by client %d", ev.Object, c)
				}
				perObject[ev.Object] = append(perObject[ev.Object], ev)
				total++
			}
		}
	}
	if total != len(trace) {
		t.Fatalf("split holds %d events, trace %d", total, len(trace))
	}
	// Each object's requests keep their trace order, whatever the
	// interleaving of the clients.
	for x, got := range perObject {
		var want []workload.TraceEvent
		for _, ev := range trace {
			if ev.Object == x {
				want = append(want, ev)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("object %d: order changed by the split", x)
		}
	}

}

// interleave alternates the clients within each stretch between snapshot
// points, and no batch after a point goes before every client has
// reached it.
func TestInterleave(t *testing.T) {
	batches := make([][][]workload.TraceEvent, 2)
	for c, n := range []int{7, 4} {
		for range n {
			batches[c] = append(batches[c], nil)
		}
	}
	snapAt := snapshotPoints([]int{7, 4}, 1) // client 0 after batch 4, client 1 after 1
	var got [][2]int
	for _, b := range interleave(batches, snapAt) {
		got = append(got, [2]int{b.client, b.index})
	}
	want := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {0, 6}, {1, 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("interleave = %v, want %v", got, want)
	}
}

func TestSnapshotPoints(t *testing.T) {
	got := snapshotPoints([]int{100, 103}, 3)
	for c, want := range [][]int{{24, 49, 74}, {27, 52, 77}} {
		if len(got[c]) != len(want) {
			t.Errorf("client %d: points %v, want %v", c, got[c], want)
		}
		for _, p := range want {
			if !got[c][p] {
				t.Errorf("client %d: missing point %d in %v", c, p, got[c])
			}
		}
	}
	if len(snapshotPoints([]int{2, 5}, 3)[0]) > 1 {
		t.Error("snapshot after the last batch")
	}
}

// A round is the same work for any --seconds; longer runs serve more
// rounds.
func TestRoundsScaleWithSeconds(t *testing.T) {
	s := spec{batch: 256, rate: 270000, rounds: 8}
	if got := s.events(); got != 337408 || got%(nclients*s.batch) != 0 {
		t.Errorf("events = %d, want 337408, a whole number of batches per client", got)
	}
	for _, c := range [][2]int{{1, 1}, {10, 8}, {20, 16}, {15, 12}} {
		if got := s.numRounds(c[0]); got != c[1] {
			t.Errorf("numRounds(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestCrosses(t *testing.T) {
	for _, c := range []struct {
		served, n, epoch int64
		want             bool
	}{
		{0, 256, 8192, false}, {7936, 256, 8192, true}, {8192, 256, 8192, false},
		{8000, 256, 8192, true}, {0, 1 << 20, noCadence, false}, {5, 5, 0, false},
	} {
		if got := crosses(c.served, c.n, c.epoch); got != c.want {
			t.Errorf("crosses(%d, %d, %d) = %v, want %v", c.served, c.n, c.epoch, got, c.want)
		}
	}
}

func TestParseCPULine(t *testing.T) {
	a, ok := parseCPULine("cpu  100 0 50 800 10 0 5 35 0 0")
	if !ok || a.total != 1000 || a.steal != 35 {
		t.Fatalf("parse = %+v %v", a, ok)
	}
	b, _ := parseCPULine("cpu  150 0 70 1700 10 0 5 65 0 0")
	if got := stealShare(a, b); got != 0.03 {
		t.Fatalf("steal share %v, want 0.03", got)
	}
	if _, ok := parseCPULine("cpu0 1 2 3"); ok {
		t.Fatal("accepted a short per-CPU line")
	}
}
