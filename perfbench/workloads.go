package main

import (
	"fmt"
	"math/rand"
	"slices"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// spec is one benchmark workload. The daemon runs with cmd/hbnd's
// defaults (4 shards, threshold 3, queue 64, Parallelism = GOMAXPROCS);
// a workload chooses only the topology, the object count, the batch size
// and the epoch cadence, and its trace.
type spec struct {
	name     string
	switches int // SCI top-ring switches
	procs    int // processors per leaf ring
	objects  int
	batch    int // events per Ingest frame
	// epoch is the cadence in served requests; noCadence keeps every
	// pass out of the run (hbnd.Config turns 0 into 4096).
	epoch int64
	// rate and rounds size the work. A run of 10 seconds serves rounds
	// independent traces, each on a fresh daemon, of rate × 10 events in
	// all; a run of --seconds serves rounds × seconds / 10 of them (at
	// least one), each as long. So a round is the same work whatever
	// --seconds is, a longer run gives more samples, and a run always
	// does the same work for a given --seconds. The traced run serves
	// one round.
	rate   int
	rounds int
	// snapshots is how many TSnapshot frames client 0 sends, evenly
	// spaced over the batches.
	snapshots int
	gen       func(rng *rand.Rand, t *tree.Tree, objects, n int) []workload.TraceEvent
}

// noCadence is an epoch cadence no run reaches.
const noCadence = 1 << 50

var specs = []spec{
	{
		// Epoch passes dominate wall time: changes to the epoch pass,
		// core.Solver.Resolve or AdoptCopySet show here, while the wire
		// carries few, large frames.
		name: "drift-epoch", switches: 8, procs: 8, objects: 1024,
		batch: 256, epoch: 8192, rate: 270000, rounds: 8, snapshots: 5,
		gen: func(rng *rand.Rand, t *tree.Tree, objects, n int) []workload.TraceEvent {
			return workload.DriftingZipf(rng, t, objects, n, 6, 1.0, 0.03)
		},
	},
	{
		// Per-frame costs dominate (codec, socket, admission, applier
		// hand-off, tail append, reply); the solver is idle, so this is
		// the bypass case for epoch and solver changes.
		name: "small-frames", switches: 8, procs: 8, objects: 1024,
		batch: 16, epoch: noCadence, rate: 360000, rounds: 24, snapshots: 5,
		gen: func(rng *rand.Rand, t *tree.Tree, objects, n int) []workload.TraceEvent {
			return workload.DriftingZipf(rng, t, objects, n, 1, 1.0, 0.03)
		},
	},
	{
		// Write bursts drive contraction and Steiner broadcasts on a
		// 1024-processor cluster whose live heap is ~5x drift-epoch's;
		// snapshot cut/encode/write and recovery weigh most here.
		name: "write-storm-1k", switches: 32, procs: 32, objects: 1024,
		batch: 1024, epoch: noCadence, rate: 1500000, rounds: 8, snapshots: 5,
		gen: func(rng *rand.Rand, t *tree.Tree, objects, n int) []workload.TraceEvent {
			return workload.WriteStorm(rng, t, objects, n, 4, 0.05)
		},
	},
}

// SCI bandwidths of every workload's topology.
const (
	ringBW   = 32
	switchBW = 16
)

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) tree() *tree.Tree { return tree.SCICluster(s.switches, s.procs, ringBW, switchBW) }

// numRounds is the number of rounds in a run of secs seconds.
func (s spec) numRounds(secs int) int { return max(1, s.rounds*secs/10) }

// events is the trace length of one round: a whole number of batches per
// client.
func (s spec) events() int {
	unit := nclients * s.batch
	return max(1, s.rate*10/(s.rounds*unit)) * unit
}

// input is a workload's generated trace, dealt onto the clients.
type input struct {
	spec    spec
	t       *tree.Tree
	trace   []workload.TraceEvent
	batches [][][]workload.TraceEvent // [client][batch] events
	// snapAt marks, per client, the batch indices after which the client
	// waits for the others and client 0 sends a TSnapshot.
	snapAt []map[int]bool
}

// nclients is the number of closed-loop clients.
const nclients = 2

func makeInput(s spec, seed int64, events int) input {
	t := s.tree()
	trace := s.gen(rand.New(rand.NewSource(seed)), t, s.objects, events)
	in := input{spec: s, t: t, trace: trace, batches: splitByObject(trace, nclients, s.batch)}
	lens := make([]int, len(in.batches))
	for c, b := range in.batches {
		lens[c] = len(b)
	}
	in.snapAt = snapshotPoints(lens, s.snapshots)
	return in
}

// snapshotPoints spreads k points evenly over the batches of the client
// with the fewest (never after its last one, so every snapshot is followed
// by traffic) and gives every client the same points counted from its
// end. The clients' shares of a trace differ in length, so the longer
// ones catch up at the first point, and after the last point every client
// has the same number of batches left: the tail log a restart replays is
// the same length on every trace.
func snapshotPoints(lens []int, k int) []map[int]bool {
	n := slices.Min(lens)
	out := make([]map[int]bool, len(lens))
	for c, l := range lens {
		out[c] = make(map[int]bool, k)
		for i := 1; i <= k; i++ {
			if p := i*n/(k+1) - 1; p >= 0 && p < n-1 {
				out[c][p+l-n] = true
			}
		}
	}
	return out
}
