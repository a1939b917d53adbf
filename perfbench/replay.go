package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"hbn/internal/core"
	"hbn/internal/dynamic"
	"hbn/internal/serve"
	"hbn/internal/tree"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; parent is the index of the enclosing span (-1 for a
// root) and batch the replay-order batch id (-1 outside any batch).
type span struct {
	name       string
	parent     int
	batch      int
	start, end int64
}

// tracer keeps spans in memory; they are written out once the run ends.
// A tracer that is off records nothing and reads no clock.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) begin(name string, parent, batch int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, batch: batch, start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].end = int64(time.Since(t.origin))
	}
}

// durations returns every span duration of the named layer call, in ns.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// total sums the named spans' durations, in ns.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// write stores the spans as CSV: id, parent, name, batch, start, end.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,batch,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", i, s.parent, s.name, s.batch, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// crosses reports whether serving n more requests after served crosses
// a multiple of the epoch cadence — the cluster's own inline test.
func crosses(served, n, epoch int64) bool {
	return epoch > 0 && served/epoch != (served+n)/epoch
}

// serveReplay is the outcome of replaying the batches through the
// daemon's layers in process.
type serveReplay struct {
	edgeLoad   []int64
	stats      serve.Stats
	ops        dynamic.OpCounts
	events     int64
	frameBytes int64
	wall       time.Duration // the batch loop, snapshots excluded
	snapshots  []serve.SnapshotStats
}

// replayServe replays the batches single-threaded, in send order, through
// the layers an ingest frame crosses in the daemon: encode, decode,
// Cluster.Ingest (cadence off), the tail append, and ResolveNow where the
// daemon's cadence would fire. With snapshots set it also snapshots at
// the daemon's snapshot points and once at the end, then restores the
// final image and checks that it holds the same loads.
func replayServe(in input, order []batchRef, tr *tracer, dir string, snapshots bool) (*serveReplay, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, "replay.snap")
	r, err := replayBatches(in, order, tr, dir, snapPath, snapshots)
	if err != nil || !snapshots {
		return r, err
	}
	sp := tr.begin("serve.restore", -1, -1)
	restored, _, err := serve.Restore(snapPath, serve.RestoreOptions{})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replay: restore: %w", err)
	}
	defer restored.Close()
	if !slices.Equal(restored.EdgeLoad(), r.edgeLoad) {
		return nil, fmt.Errorf("replay: restored cluster's loads differ from the snapshotted cluster's")
	}
	return r, nil
}

// replayBatches is replayServe's batch loop; with snapshots set it ends
// with a final snapshot at snapPath.
func replayBatches(in input, order []batchRef, tr *tracer, dir, snapPath string, snapshots bool) (*serveReplay, error) {
	s := in.spec
	cl, err := serve.NewCluster(in.t, s.objects, serve.Options{Shards: 4, Threshold: 3})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	tail, err := wire.OpenLog(filepath.Join(dir, "replay.tail"))
	if err != nil {
		return nil, err
	}
	defer tail.Close()

	r := &serveReplay{}
	snapshot := func(parent, batch int) error {
		sp := tr.begin("serve.snapshot", parent, batch)
		ss, err := cl.Snapshot(snapPath)
		if err == nil {
			err = tail.Truncate()
		}
		tr.end(sp)
		r.snapshots = append(r.snapshots, ss)
		return err
	}
	var (
		body, frame, tailBody []byte
		events                []workload.TraceEvent
		snapTime              time.Duration
		served                int64
		arrived               int // clients past the next snapshot point
	)
	t0 := time.Now()
	for i, b := range order {
		seq := uint64(i + 1)
		root := tr.begin("batch", -1, i)

		sp := tr.begin("wire.encode", root, i)
		body = wire.AppendIngestBody(body[:0], 0, b.events)
		frame = wire.AppendFrame(frame[:0], wire.TIngest, seq, body)
		tr.end(sp)

		sp = tr.begin("wire.decode", root, i)
		f, n, err := wire.DecodeFrame(frame)
		if err == nil {
			_, events, err = wire.ParseIngestBody(f.Body, events)
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay batch %d: decode: %w", i, err)
		}
		if n != len(frame) || f.Type != wire.TIngest || f.Seq != seq || !slices.Equal(events, b.events) {
			return nil, fmt.Errorf("replay batch %d: frame does not round-trip", i)
		}
		r.frameBytes += int64(len(frame))

		sp = tr.begin("serve.ingest", root, i)
		_, err = cl.Ingest(events)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}

		sp = tr.begin("wire.tail_append", root, i)
		tailBody = wire.AppendEvents(tailBody[:0], events)
		err = tail.AppendBatch(seq, tailBody)
		tr.end(sp)
		if err != nil {
			return nil, err
		}

		if crosses(served, int64(len(events)), s.epoch) {
			sp = tr.begin("serve.epoch", root, i)
			err = cl.ResolveNow()
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("replay batch %d: epoch: %w", i, err)
			}
		}
		served += int64(len(events))

		// The daemon snapshots once every client has sent its batch at
		// the point.
		if in.snapAt[b.client][b.index] {
			arrived++
		}
		if snapshots && arrived == len(in.batches) {
			arrived = 0
			ts := time.Now()
			if err := snapshot(root, i); err != nil {
				return nil, fmt.Errorf("replay batch %d: snapshot: %w", i, err)
			}
			snapTime += time.Since(ts)
		}
		tr.end(root)
	}
	r.wall = time.Since(t0) - snapTime
	r.events = served
	r.edgeLoad = cl.EdgeLoad()
	r.stats = cl.Stats()
	r.ops = cl.OpCounts()
	if snapshots {
		if err := snapshot(-1, -1); err != nil {
			return nil, fmt.Errorf("replay: final snapshot: %w", err)
		}
	}
	return r, nil
}

// replayDynamic serves the batches through one dynamic.Strategy holding
// every object and records them in an OfflineTracker, as each serving
// shard does. It returns the strategy's per-edge loads.
func replayDynamic(in input, order []batchRef, tr *tracer) []int64 {
	st := dynamic.MustNew(in.t, in.spec.objects, dynamic.Options{Threshold: 3})
	ot := dynamic.NewOfflineTracker(in.t, in.spec.objects)
	for i, b := range order {
		root := tr.begin("dynamic.batch", -1, i)
		sp := tr.begin("dynamic.serve_batch", root, i)
		st.ServeBatch(b.events)
		tr.end(sp)
		sp = tr.begin("dynamic.record_batch", root, i)
		ot.RecordBatch(st.GroupedBatch())
		tr.end(sp)
		tr.end(root)
	}
	return slices.Clone(st.EdgeLoad)
}

// replayCore feeds the epoch deltas into a core.Solver the way the epoch
// pass does: a full Solve at the first cadence point, then Resolve with
// the objects touched since the previous point. A workload whose cadence
// never fires gets one Solve on the whole trace.
func replayCore(in input, order []batchRef, tr *tracer) error {
	solver, err := core.NewSolver(in.t, core.Options{MappingRoot: tree.None})
	if err != nil {
		return err
	}
	w := workload.New(in.spec.objects, in.t.Len())
	touched := make([]bool, in.spec.objects)
	var changed []int
	solved := false
	solve := func(batch int) error {
		var err error
		if !solved {
			sp := tr.begin("core.solve", -1, batch)
			_, err = solver.Solve(w)
			tr.end(sp)
		} else {
			sp := tr.begin("core.resolve", -1, batch)
			_, err = solver.Resolve(changed)
			tr.end(sp)
		}
		solved = true
		for _, x := range changed {
			touched[x] = false
		}
		changed = changed[:0]
		return err
	}
	var served int64
	for i, b := range order {
		w.AddTrace(b.events)
		for _, ev := range b.events {
			if !touched[ev.Object] {
				touched[ev.Object] = true
				changed = append(changed, ev.Object)
			}
		}
		cross := crosses(served, int64(len(b.events)), in.spec.epoch)
		served += int64(len(b.events))
		if cross {
			if err := solve(i); err != nil {
				return fmt.Errorf("core replay batch %d: %w", i, err)
			}
		}
	}
	if !solved {
		return solve(-1)
	}
	return nil
}
