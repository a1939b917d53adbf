package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"hbn/internal/hbnd"
	"hbn/internal/wire"
)

// daemonConfig is cmd/hbnd's configuration for a workload: the flag
// defaults (threshold 3, 4 shards, queue 64, Parallelism 0 =
// GOMAXPROCS) with the workload's topology, objects and cadence.
func daemonConfig(s spec, dir string) hbnd.Config {
	return hbnd.Config{
		Addr:          "127.0.0.1:0",
		SnapshotPath:  filepath.Join(dir, "state.snap"),
		Switches:      s.switches,
		ProcsPerRing:  s.procs,
		RingBW:        ringBW,
		SwitchBW:      switchBW,
		NumObjects:    s.objects,
		EpochRequests: s.epoch,
		Threshold:     3,
		Shards:        4,
		QueueCap:      64,
	}
}

// server is one in-process daemon serving on loopback.
type server struct {
	d      *hbnd.Daemon
	addr   string
	served chan error // Serve's return
}

// processCPU is the CPU time, user and system, that every thread of this
// process has used so far. The kernel leaves out time the hypervisor
// stole from the guest and time spent waiting for a CPU, so it prices the
// work done, not the host's load.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch reads wall time and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

// elapsed is a stretch of wall time and the process CPU time used in it.
type elapsed struct{ wall, cpu time.Duration }

func (w stopwatch) elapsed() elapsed {
	cpu := processCPU()
	return elapsed{time.Since(w.wall), cpu - w.cpu}
}

// start builds a daemon and serves it, returning once a Stats frame has
// been answered: the answer, and the time from hbnd.New to it. The heap
// is collected first, so no earlier daemon's garbage is charged to it.
func start(cfg hbnd.Config) (*server, *wire.DaemonStats, elapsed, error) {
	runtime.GC()
	w := startWatch()
	d, err := hbnd.New(cfg)
	if err != nil {
		return nil, nil, elapsed{}, err
	}
	if err := d.Listen(); err != nil {
		d.Close()
		return nil, nil, elapsed{}, err
	}
	s := &server{d: d, addr: d.Addr(), served: make(chan error, 1)}
	go func() { s.served <- d.Serve() }()
	st, err := s.stats()
	el := w.elapsed()
	if err != nil {
		s.close()
		return nil, nil, elapsed{}, err
	}
	return s, st, el, nil
}

// stats fetches the daemon's counters on a fresh connection.
func (s *server) stats() (*wire.DaemonStats, error) {
	cl, err := wire.Dial(s.addr, wire.ClientOptions{Seed: 1})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.Stats()
}

// msgStats fetches the daemon's telemetry export on a fresh connection.
func (s *server) msgStats() (*wire.MsgStats, error) {
	cl, err := wire.Dial(s.addr, wire.ClientOptions{Seed: 1})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.MsgStats()
}

// close shuts the daemon down abruptly (no final snapshot: the tail log
// keeps everything since the last one) and waits for Serve to return.
func (s *server) close() error {
	err := s.d.Close()
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// coldStarts builds the daemon n times from nothing and returns each
// set-up time; every daemon is closed again.
func coldStarts(s spec, work string, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		srv, _, el, err := start(daemonConfig(s, dir))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if err := srv.close(); err != nil {
			return nil, fmt.Errorf("set-up %d: close: %w", i, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		out = append(out, el.wall.Seconds())
	}
	return out, nil
}

// phase is the outcome of the timed phase.
type phase struct {
	wall      time.Duration
	cpu       time.Duration // process CPU time over the phase
	paused    elapsed       // stretches with no batch in flight: snapshots
	offered   int           // ingest batches offered
	failed    int           // batches shed past retries or expired
	acked     ledger        // acknowledged events and costs
	accepted  [][]bool      // [client][batch]: acknowledged
	latencyMs []float64     // Ingest round trip of every acknowledged batch
	snapshots []elapsed     // TSnapshot round trips
}

// errStopped ends a client whose peer failed first.
var errStopped = errors.New("stopped: another client failed")

// drive runs the timed phase: nclients closed-loop clients, each with its
// own connection, each sending its next batch only after the previous
// reply. At each snapshot point every client pauses after its batch at
// that point and client 0 sends a TSnapshot, so a snapshot never stalls a
// batch in flight and the tail log after the last one holds a fixed number
// of batches.
func drive(srv *server, in input) (*phase, error) {
	type result struct {
		latency   []float64
		snapshots []elapsed
		paused    elapsed
		accepted  []bool
		acked     ledger
		failed    int
		err       error
	}
	results := make([]result, len(in.batches))
	// arrived collects the other clients at a snapshot point; resume
	// releases them (one send per client per point); stop aborts every
	// wait once a client fails.
	arrived := make(chan struct{}, nclients)
	resume := make(chan struct{}, nclients)
	stop := make(chan struct{})
	var stopOnce sync.Once
	fail := func(r *result, err error) {
		r.err = err
		stopOnce.Do(func() { close(stop) })
	}
	// barrier is a snapshot point as seen by client c: client 0 waits for
	// the others, snapshots, and releases them.
	barrier := func(c int, cl *wire.Client, r *result) error {
		if c != 0 {
			arrived <- struct{}{}
			select {
			case <-resume:
				return nil
			case <-stop:
				return errStopped
			}
		}
		for i := 1; i < len(in.batches); i++ {
			select {
			case <-arrived:
			case <-stop:
				return errStopped
			}
		}
		// Every client now waits: nothing is in flight until the release.
		// The heap is collected first, so a snapshot is not charged with
		// a collection the batches before it made due; the collection
		// counts as paused, not as serving time.
		w := startWatch()
		runtime.GC()
		ws := startWatch()
		_, err := cl.Snapshot()
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		r.snapshots = append(r.snapshots, ws.elapsed())
		for i := 1; i < len(in.batches); i++ {
			resume <- struct{}{}
		}
		el := w.elapsed()
		r.paused.wall += el.wall
		r.paused.cpu += el.cpu
		return nil
	}

	var wg sync.WaitGroup
	w := startWatch()
	for c := range in.batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			cl, err := wire.Dial(srv.addr, wire.ClientOptions{Seed: int64(c) + 1})
			if err != nil {
				fail(r, err)
				return
			}
			defer cl.Close()
			r.accepted = make([]bool, len(in.batches[c]))
			r.latency = make([]float64, 0, len(in.batches[c]))
			for k, b := range in.batches[c] {
				t := time.Now()
				cost, err := cl.Ingest(b, 0)
				el := time.Since(t)
				switch {
				case err == nil:
					r.latency = append(r.latency, millis(el))
					r.accepted[k] = true
					r.acked.events += int64(len(b))
					r.acked.cost += cost
				case errors.Is(err, wire.ErrOverloaded), errors.Is(err, wire.ErrExpired):
					r.failed++
				default:
					fail(r, fmt.Errorf("client %d batch %d: %w", c, k, err))
					return
				}
				if in.snapAt[c][k] {
					if err := barrier(c, cl, r); err != nil {
						fail(r, fmt.Errorf("client %d after batch %d: %w", c, k, err))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	el := w.elapsed()
	p := &phase{wall: el.wall, cpu: el.cpu}
	for c, r := range results {
		if r.err != nil && !errors.Is(r.err, errStopped) {
			return nil, r.err
		}
		p.offered += len(in.batches[c])
		p.failed += r.failed
		p.paused.wall += r.paused.wall
		p.paused.cpu += r.paused.cpu
		p.acked.events += r.acked.events
		p.acked.cost += r.acked.cost
		p.accepted = append(p.accepted, r.accepted)
		p.latencyMs = append(p.latencyMs, r.latency...)
		p.snapshots = append(p.snapshots, r.snapshots...)
	}
	return p, nil
}

// liveHeapMB is the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// recoverDaemon restarts the daemon on the state an abrupt Close left
// behind (snapshot ladder + tail replay) and checks that it recovered
// every accepted event. It returns the time to the first answered Stats.
func recoverDaemon(cfg hbnd.Config, accepted int64) (elapsed, error) {
	srv, st, el, err := start(cfg)
	if err == nil {
		err = srv.close()
	}
	if err != nil {
		return elapsed{}, fmt.Errorf("restart: %w", err)
	}
	if st.Requests != accepted {
		return elapsed{}, fmt.Errorf("restart recovered %d requests, %d were accepted", st.Requests, accepted)
	}
	return el, nil
}
