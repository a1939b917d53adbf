// Command perfbench is the repository benchmark. It serves one workload
// through hbnd, in process, on a 127.0.0.1:0 listener, driven by two
// closed-loop clients, checks the daemon's books, and prints the
// end-to-end metrics (--trace 0) or, from a separate in-process replay
// with spans around each layer call, the per-layer metrics (--trace 1).
// See README.md for the workloads and metrics.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload drift-epoch --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// exits with status 1 and prints no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"hbn/internal/dynamic"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

func main() {
	var (
		name  = flag.String("workload", "", "workload: drift-epoch, small-frames or write-storm-1k")
		seed  = flag.Int64("seed", 1, "trace seed")
		secs  = flag.Int("seconds", 10, "sizes the run: each 10 seconds add the workload's rounds per 10 s")
		trace = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)
	err := fmt.Errorf("--trace %d, want 0 or 1", *trace)
	if *trace == 0 || *trace == 1 {
		err = run(*name, *seed, *secs, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// maxProcs is the GOMAXPROCS the benchmark runs at, clients and daemon
// alike (the daemon's Parallelism 0 follows it). On a 2-vCPU guest, a
// closed-loop ping-pong spread over both vCPUs spends its time waking the
// idle one, and what that costs depends on the host's load: with the
// second vCPU kept busy by another process, the same small-frames run
// served 35% more events per second. On one P, a round trip runs on one
// thread and no wake-up crosses vCPUs.
const maxProcs = 1

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report accumulates metrics in print order.
type report []metric

func (r *report) add(name string, value float64, unit string, samples int) {
	*r = append(*r, metric{name, value, unit, samples})
}

// setupsPerRound and restartsPerRound are the number of cold starts and
// of restarts on the closed daemon's state in each end-to-end round (see
// endToEnd for how rounds combine). A restart that serves nothing leaves
// the snapshot and tail as it found them, so every restart of a round
// recovers the same state.
const (
	setupsPerRound   = 3
	restartsPerRound = 3
)

// roundResult is one round's end-to-end outcome.
type roundResult struct {
	setups     []float64 // cold-start times, s
	ph         *phase
	heapMB     float64
	cpu        cpuTimes  // host CPU time and steal from the first cold start to the last restart
	recovery   []elapsed // restarts
	congestion float64   // online / static
	// Kept for the traced run.
	in         input
	order      []batchRef
	ms         *wire.MsgStats
	daemonLoad []int64
	noEpochs   bool
}

// run measures one workload. It runs from the root of a checkout and
// keeps its scratch state and spans under .bench_build there.
func run(name string, seed int64, secs int, traced bool) error {
	s, err := specByName(name)
	if err != nil {
		return err
	}
	if secs < 1 {
		return fmt.Errorf("--seconds %d, want >= 1", secs)
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	host := newHostFacts(".")
	nrounds := s.numRounds(secs)
	if traced {
		nrounds = 1
	}
	events := s.events()
	fmt.Printf("workload %s seed %d: %d rounds of %d events, %d clients, %d-event batches, cadence %s, %d snapshots\n",
		s.name, seed, nrounds, events, nclients, s.batch, cadence(s.epoch), s.snapshots)

	var cpu cpuTimes
	var attempted, failed int
	results := make([]*roundResult, nrounds)
	for i := range results {
		// Inputs are generated before anything is timed.
		in := makeInput(s, seed*1_000_003+int64(i), events)
		rr, err := runRound(in, filepath.Join(work, fmt.Sprintf("round%d", i)), traced)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		cpu.total += rr.cpu.total
		cpu.steal += rr.cpu.steal
		attempted += rr.ph.offered
		failed += rr.ph.failed
		fmt.Printf("round %d: %d of %d batches acknowledged, %d events in %.3fs, %.3f CPU-s (%.3fs, %.3f CPU-s paused for snapshots), batch p50 %.4f p99 %.4f ms, restarts %s CPU-s, steal %.3f\n",
			i, rr.ph.offered-rr.ph.failed, rr.ph.offered, rr.ph.acked.events, rr.ph.wall.Seconds(), rr.ph.cpu.Seconds(),
			rr.ph.paused.wall.Seconds(), rr.ph.paused.cpu.Seconds(), percentile(rr.ph.latencyMs, 0.50), percentile(rr.ph.latencyMs, 0.99),
			cpuSeconds(rr.recovery), stealShare(cpuTimes{}, rr.cpu))
		if !traced {
			// Only the traced run replays a round afterwards.
			rr.in, rr.order, rr.daemonLoad = input{}, nil, nil
		}
		results[i] = rr
	}
	if steal := stealShare(cpuTimes{}, cpu); !math.IsNaN(steal) {
		host.StealFrac = &steal
	}
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return fmt.Errorf("host facts: %w", err)
	}
	fmt.Printf("host %s\n", hostJSON)

	var r report
	if traced {
		rr := results[0]
		r, err = traceLayers(rr.in, rr.order, rr.ph, rr.ms, rr.daemonLoad, rr.noEpochs,
			filepath.Join(work, "replay"), filepath.Join(".bench_build", "spans", s.name+".csv"))
		if err != nil {
			return err
		}
	} else {
		var wall report
		r, wall = endToEnd(results)
		for _, m := range wall {
			fmt.Printf("wall %-28s %-14s %-10s n=%d\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.samples)
		}
		fmt.Printf("failed_frac %s (%d of %d batches)\n",
			strconv.FormatFloat(float64(failed)/float64(attempted), 'g', -1, 64), failed, attempted)
	}
	return printResult(r, attempted, failed)
}

// cpuSeconds formats the CPU times of restarts.
func cpuSeconds(es []elapsed) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = strconv.FormatFloat(e.cpu.Seconds(), 'f', 4, 64)
	}
	return "[" + strings.Join(out, " ") + "]"
}

// runRound serves one trace through a fresh daemon and checks its books:
// cold starts, the timed phase, the ledger, an abrupt Close and timed
// restarts, and the replay identity of the final loads (a traced round
// leaves that check to its own replay).
func runRound(in input, work string, traced bool) (*roundResult, error) {
	s := in.spec
	rr := &roundResult{in: in}
	nsetup := setupsPerRound
	if traced {
		nsetup = 1
	}
	cpu0, _ := readCPUTimes()
	setups, err := coldStarts(s, work, nsetup-1)
	if err != nil {
		return nil, err
	}

	// The measured daemon: one more cold start, kept.
	heapBase := liveHeapMB()
	dir := filepath.Join(work, "daemon")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := daemonConfig(s, dir)
	srv, pre, el, err := start(cfg)
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	rr.setups = append(setups, el.wall.Seconds())
	ph, err := drive(srv, in)
	if err != nil {
		srv.close()
		return nil, err
	}
	rr.ph = ph
	rr.heapMB = liveHeapMB() - heapBase
	post, err := srv.stats()
	if err == nil {
		err = checkLedger(pre, post, ph.acked)
	}
	if err != nil {
		srv.close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if rr.ms, err = srv.msgStats(); err != nil {
		srv.close()
		return nil, err
	}
	cl := srv.d.Cluster()
	t := cl.Tree()
	rr.daemonLoad = cl.EdgeLoad()
	if err := srv.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	nrestart := restartsPerRound
	if traced {
		nrestart = 1
	}
	for range nrestart {
		el, err = recoverDaemon(cfg, ph.acked.events)
		if err != nil {
			return nil, err
		}
		rr.recovery = append(rr.recovery, el)
	}
	if cpu1, ok := readCPUTimes(); ok && cpu1.total >= cpu0.total {
		rr.cpu = cpuTimes{total: cpu1.total - cpu0.total, steal: cpu1.steal - cpu0.steal}
	}

	rr.order = acceptedOrder(in, ph)
	rr.noEpochs = post.Epochs == 0
	if s.epoch < noCadence && rr.noEpochs {
		return nil, fmt.Errorf("cadence %d never fired", s.epoch)
	}
	// The loads the daemon served must be exactly those of the in-process
	// replay when no epoch pass depends on how the two connections
	// interleaved.
	if !traced && rr.noEpochs && !slices.Equal(replayDynamic(in, rr.order, newTracer(false)), rr.daemonLoad) {
		return nil, fmt.Errorf("daemon's final EdgeLoad differs from the in-process replay's")
	}
	trace := in.trace
	if ph.failed > 0 {
		trace = acceptedEvents(rr.order)
	}
	static, err := dynamic.StaticOffline(t, s.objects, trace)
	if err != nil {
		return nil, fmt.Errorf("static offline: %w", err)
	}
	rr.congestion = congestionOf(t, rr.daemonLoad) / static.Congestion.Float()
	return rr, os.RemoveAll(work)
}

// endToEnd reports the end-to-end metrics over every round, and the
// wall-clock figures that are printed but kept out of the result line.
// Each round serves a different trace on a fresh daemon; its throughput
// and batch percentiles come from its own raw samples, and the run
// reports the median over rounds, so a burst of host noise that spoils a
// few rounds moves none of them. Snapshot times are pooled over all
// rounds. Restart times are the median over rounds of each round's
// fastest restart, and setup_s is the median of the faster half of every
// cold start: identical starts, so only host noise tells them apart. The
// deterministic quantities are averaged over rounds.
//
// Throughput, snapshot and restart costs are reported in process CPU
// time: on a shared host the wall time of the same work swings with the
// load of other guests, while CPU time leaves out what the hypervisor
// steals and what other processes take. The wall-clock throughput, batch
// p99, snapshot and restart times are printed above the result line.
func endToEnd(results []*roundResult) (metrics, wall report) {
	var setups, rate, cpuRate, p50, p99, ratio, heap, snaps, snapsCPU, recov, recovCPU []float64
	var acked ledger
	var batches int
	for _, rr := range results {
		ph := rr.ph
		setups = append(setups, rr.setups...)
		rate = append(rate, float64(ph.acked.events)/(ph.wall-ph.paused.wall).Seconds())
		cpuRate = append(cpuRate, float64(ph.acked.events)/(ph.cpu-ph.paused.cpu).Seconds())
		p50 = append(p50, percentile(ph.latencyMs, 0.50))
		p99 = append(p99, percentile(ph.latencyMs, 0.99))
		batches += len(ph.latencyMs)
		ratio = append(ratio, rr.congestion)
		heap = append(heap, rr.heapMB)
		for _, e := range ph.snapshots {
			snaps = append(snaps, millis(e.wall))
			snapsCPU = append(snapsCPU, millis(e.cpu))
		}
		// A round's restarts recover the same state, so only host noise
		// tells them apart: the round counts its fastest.
		fastest := rr.recovery[0]
		for _, e := range rr.recovery[1:] {
			fastest.wall = min(fastest.wall, e.wall)
			fastest.cpu = min(fastest.cpu, e.cpu)
		}
		recov = append(recov, fastest.wall.Seconds())
		recovCPU = append(recovCPU, fastest.cpu.Seconds())
		acked.events += ph.acked.events
		acked.cost += ph.acked.cost
	}
	n := len(results)
	metrics.add("setup_s", fasterHalf(setups), "s", len(setups))
	metrics.add("events_per_cpu_s", median(cpuRate), "events/cpu-s", int(acked.events))
	metrics.add("batch_p50_ms", median(p50), "ms", batches)
	metrics.add("congestion_ratio", mean(ratio), "ratio", n)
	metrics.add("cost_per_event", float64(acked.cost)/float64(acked.events), "cost/event", int(acked.events))
	metrics.add("heap_live_mb", median(heap), "MiB", n)
	metrics.add("snapshot_cpu_ms", median(snapsCPU), "ms", len(snapsCPU))
	metrics.add("recovery_cpu_s", median(recovCPU), "s", len(results)*restartsPerRound)
	wall.add("events_per_s", median(rate), "events/s", int(acked.events))
	wall.add("batch_p99_ms", median(p99), "ms", batches)
	wall.add("snapshot_ms", median(snaps), "ms", len(snaps))
	wall.add("recovery_s", median(recov), "s", len(results)*restartsPerRound)
	return metrics, wall
}

func cadence(epoch int64) string {
	if epoch >= noCadence {
		return "off"
	}
	return strconv.FormatInt(epoch, 10)
}

// acceptedOrder is the replay order of the acknowledged batches.
func acceptedOrder(in input, ph *phase) []batchRef {
	var out []batchRef
	for _, b := range interleave(in.batches, in.snapAt) {
		if ph.accepted[b.client][b.index] {
			out = append(out, b)
		}
	}
	return out
}

func acceptedEvents(order []batchRef) []workload.TraceEvent {
	var out []workload.TraceEvent
	for _, b := range order {
		out = append(out, b.events...)
	}
	return out
}

// printResult prints every metric with its unit and sample count, then
// the one-line JSON result.
func printResult(r report, attempted, failed int) error {
	var b strings.Builder
	b.WriteString(`{"correct": true, "attempted": `)
	b.WriteString(strconv.Itoa(attempted))
	b.WriteString(`, "failed": `)
	b.WriteString(strconv.Itoa(failed))
	b.WriteString(`, "metrics": {`)
	for i, m := range r {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		v := strconv.FormatFloat(m.value, 'g', -1, 64)
		fmt.Printf("metric %-28s %-14s %-10s n=%d\n", m.name, v, m.unit, m.samples)
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `"%s": {"value": %s, "unit": "%s"}`, m.name, v, m.unit)
	}
	b.WriteString("}}")
	fmt.Println(b.String())
	return nil
}
