package main

import (
	"fmt"
	"math"
	"os"
	"slices"

	"hbn/internal/wire"
)

// traceLayers produces the per-layer metrics. The hbnd.* rows read the
// daemon's own telemetry from the timed phase; everything else comes
// from single-threaded in-process replays of the acknowledged batches in
// send order, with a span around each call into a layer. The spans are
// written to spansPath at the end.
func traceLayers(in input, order []batchRef, ph *phase, ms *wire.MsgStats, daemonLoad []int64,
	noEpochs bool, dir, spansPath string) (report, error) {
	overhead, err := traceOverhead(in, order, dir+"-overhead")
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	rep, err := replayServe(in, order, tr, dir, true)
	if err != nil {
		return nil, err
	}
	dynLoad := replayDynamic(in, order, tr)
	if noEpochs {
		if !slices.Equal(rep.edgeLoad, daemonLoad) {
			return nil, fmt.Errorf("daemon's final EdgeLoad differs from the traced replay's")
		}
		if !slices.Equal(dynLoad, daemonLoad) {
			return nil, fmt.Errorf("daemon's final EdgeLoad differs from the single-strategy replay's")
		}
	}
	if err := replayCore(in, order, tr); err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansPath)

	var apply *wire.HistStat
	for i := range ms.Hists {
		if ms.Hists[i].Name == "apply" {
			apply = &ms.Hists[i]
		}
	}
	if apply == nil || apply.Count == 0 {
		return nil, fmt.Errorf("daemon exported no apply histogram")
	}

	ev := float64(rep.events)
	perEvent := func(name string) float64 { return tr.total(name) / ev }
	nb := len(order)
	var r report

	solves, resolves := tr.durations("core.solve"), tr.durations("core.resolve")
	r.add("core.solve_ms", orZero(median(solves))/1e6, "ms", len(solves))
	r.add("core.resolve_ms_p50", orZero(median(resolves))/1e6, "ms", len(resolves))

	epochs := tr.durations("serve.epoch")
	epochTotal, ingestTotal := tr.total("serve.epoch"), tr.total("serve.ingest")
	r.add("serve.epoch_ms_p50", orZero(median(epochs))/1e6, "ms", len(epochs))
	r.add("serve.epoch_ms_max", orZero(percentile(epochs, 1))/1e6, "ms", len(epochs))
	r.add("serve.epoch_share", epochTotal/(epochTotal+ingestTotal), "ratio", len(epochs))
	st := rep.stats
	r.add("serve.epochs", float64(st.Epochs), "count", 1)
	r.add("serve.drifted_per_epoch", orZero(float64(st.Drifted)/float64(st.Epochs)), "objects", int(st.Epochs))
	r.add("serve.adopt_moved", float64(st.AdoptMoved), "count", 1)
	r.add("serve.ingest_ns_per_event", ingestTotal/ev, "ns/event", nb)
	var shardEvents []float64
	for _, v := range ms.ShardEvents {
		shardEvents = append(shardEvents, float64(v))
	}
	r.add("serve.shard_imbalance", percentile(shardEvents, 1)/mean(shardEvents), "ratio", len(shardEvents))

	r.add("dynamic.serve_ns_per_event", perEvent("dynamic.serve_batch"), "ns/event", nb)
	r.add("dynamic.record_ns_per_event", perEvent("dynamic.record_batch"), "ns/event", nb)
	r.add("dynamic.replications", float64(rep.ops.Replications), "count", 1)
	r.add("dynamic.contractions", float64(rep.ops.Contractions), "count", 1)

	r.add("wire.encode_ns_per_event", perEvent("wire.encode"), "ns/event", nb)
	r.add("wire.decode_ns_per_event", perEvent("wire.decode"), "ns/event", nb)
	r.add("wire.bytes_per_event", float64(rep.frameBytes)/ev, "B/event", nb)

	// The apply histogram's Sum and Count are exact; its quantiles are
	// bucket tops and are not used. It starts at dequeue.
	applyMeanUs := float64(apply.Sum) / float64(apply.Count) / 1e3
	r.add("hbnd.apply_busy_frac", float64(apply.Sum)/float64(ph.wall), "ratio", int(apply.Count))
	r.add("hbnd.apply_mean_us", applyMeanUs, "us", int(apply.Count))
	r.add("hbnd.outside_apply_mean_us", mean(ph.latencyMs)*1e3-applyMeanUs, "us", len(ph.latencyMs))
	r.add("hbnd.tail_append_ns_per_event", perEvent("wire.tail_append"), "ns/event", nb)
	r.add("hbnd.queue_high_water", float64(ms.QueueHighWater), "count", 1)

	var cut, encode, write, size []float64
	for _, ss := range rep.snapshots {
		cut = append(cut, millis(ss.CutStall))
		encode = append(encode, millis(ss.EncodeElapsed))
		write = append(write, millis(ss.WriteElapsed))
		size = append(size, float64(ss.Bytes))
	}
	r.add("snapshot.cut_ms", median(cut), "ms", len(cut))
	r.add("snapshot.encode_ms", median(encode), "ms", len(encode))
	r.add("snapshot.write_ms", median(write), "ms", len(write))
	r.add("snapshot.bytes", median(size), "B", len(size))
	r.add("snapshot.restore_ms", tr.total("serve.restore")/1e6, "ms", 1)

	r.add("trace.overhead_frac", overhead, "ratio", 2*overheadPairs)
	return r, nil
}

// overheadPairs is how many untraced and traced replays traceOverhead
// alternates.
const overheadPairs = 3

// traceOverhead prices the spans: the batch loop replayed with the tracer
// off and on, alternately, comparing the fastest replay of each kind.
func traceOverhead(in input, order []batchRef, dir string) (float64, error) {
	var plain, traced []float64
	for i := 0; i < overheadPairs; i++ {
		for _, on := range []bool{false, true} {
			rep, err := replayServe(in, order, newTracer(on), dir, false)
			if err != nil {
				return 0, err
			}
			if on {
				traced = append(traced, float64(rep.wall))
			} else {
				plain = append(plain, float64(rep.wall))
			}
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
		}
	}
	return slices.Min(traced)/slices.Min(plain) - 1, nil
}

// orZero maps the NaN of an empty sample set to 0: the layer did no
// such work on this workload.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
