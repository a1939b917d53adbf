package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"hbn/internal/tree"
	"hbn/internal/wire"
	"hbn/internal/workload"
)

// percentile is the nearest-rank q-quantile (0 < q <= 1) of raw samples:
// the smallest sample with at least q·n samples at or below it. It sorts
// a copy, so callers keep their sample order. Percentiles are always
// taken from raw samples, never from the power-of-two obs histograms.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the midpoint of raw samples (the mean of the two middle
// samples for an even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fasterHalf is the median of the ceil(n/2) smallest values.
func fasterHalf(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return median(s[:(len(s)+1)/2])
}

// mean is the arithmetic mean (NaN for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// congestionOf is the serving-side congestion of a load vector: the
// maximum relative load over switches and buses, where a bus carries
// half the sum of its incident switch loads. It is the cost model of
// cmd/hbnbench's metrics.go, so congestion_ratio is the number the
// -ratio mode reports.
func congestionOf(t *tree.Tree, loads []int64) float64 {
	var c float64
	for e := 0; e < t.NumEdges(); e++ {
		if v := float64(loads[e]) / float64(t.EdgeBandwidth(tree.EdgeID(e))); v > c {
			c = v
		}
	}
	for _, b := range t.Buses() {
		var sum int64
		for _, h := range t.Adj(b) {
			sum += loads[h.Edge]
		}
		if v := float64(sum) / (2 * float64(t.NodeBandwidth(b))); v > c {
			c = v
		}
	}
	return c
}

// splitByObject deals the trace onto nclients clients by object
// (x % nclients) and cuts each client's share into batches of at most
// size events. Every object belongs to exactly one client, so its
// request order is fixed however the connections interleave.
func splitByObject(trace []workload.TraceEvent, nclients, size int) [][][]workload.TraceEvent {
	shares := make([][]workload.TraceEvent, nclients)
	for _, ev := range trace {
		c := ev.Object % nclients
		shares[c] = append(shares[c], ev)
	}
	out := make([][][]workload.TraceEvent, nclients)
	for c, share := range shares {
		for lo := 0; lo < len(share); lo += size {
			out[c] = append(out[c], share[lo:min(lo+size, len(share))])
		}
	}
	return out
}

// batchRef names one client batch in replay order.
type batchRef struct {
	client, index int
	events        []workload.TraceEvent
}

// interleave orders the clients' batches the way they were sent: one
// batch per client in turn, and at each snapshot point (snapAt, per
// client) every client waits until all have sent their batch at it.
func interleave(batches [][][]workload.TraceEvent, snapAt []map[int]bool) []batchRef {
	var out []batchRef
	lo := make([]int, len(batches))
	hi := make([]int, len(batches))
	for {
		// The segment of client c runs from lo[c] through its next
		// snapshot point, or to its last batch.
		more := false
		for c, bs := range batches {
			hi[c] = lo[c]
			for hi[c] < len(bs) && !snapAt[c][hi[c]] {
				hi[c]++
			}
			hi[c] = min(hi[c]+1, len(bs))
			more = more || lo[c] < len(bs)
		}
		if !more {
			return out
		}
		for k := 0; more; k++ {
			more = false
			for c, bs := range batches {
				if i := lo[c] + k; i < hi[c] {
					out = append(out, batchRef{client: c, index: i, events: bs[i]})
					more = true
				}
			}
		}
		copy(lo, hi)
	}
}

// ledger is what the clients saw acknowledged over the timed phase.
type ledger struct {
	events int64 // acknowledged events
	cost   int64 // Σ acknowledged batch costs
}

// checkLedger reconciles the daemon's counters before and after the
// timed phase against what the clients saw acknowledged: the daemon
// served exactly the acknowledged events, charged exactly their costs,
// and its service-load books close.
func checkLedger(pre, post *wire.DaemonStats, acked ledger) error {
	switch {
	case post.Requests-pre.Requests != acked.events:
		return fmt.Errorf("daemon served %d events, clients saw %d acknowledged",
			post.Requests-pre.Requests, acked.events)
	case post.ServiceCost-pre.ServiceCost != acked.cost:
		return fmt.Errorf("daemon cost delta %d != Σ acknowledged costs %d",
			post.ServiceCost-pre.ServiceCost, acked.cost)
	case post.ServiceLoadSum+post.DroppedServiceLoad != post.ServiceCost:
		return fmt.Errorf("ledger open: ΣServiceLoad %d + dropped %d != ServiceCost %d",
			post.ServiceLoadSum, post.DroppedServiceLoad, post.ServiceCost)
	}
	return nil
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes reads /proc/stat; ok is false where it is unavailable.
func readCPUTimes() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil && err != io.EOF {
		return cpuTimes{}, false
	}
	return parseCPULine(line)
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq
// steal ..." into total and steal jiffies.
func parseCPULine(line string) (cpuTimes, bool) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	// Fields 1..8 are user..steal; guest time is already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of CPU time stolen by the hypervisor between
// two readings (NaN when nothing elapsed).
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return math.NaN()
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostFacts are recorded with every result.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// StealFrac is the stolen share of CPU time over every round;
	// absent when /proc/stat gave no reading.
	StealFrac *float64 `json:"steal_frac,omitempty"`
}

func newHostFacts(root string) hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commitOf(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf identifies the measured source: the git commit when the
// checkout is a repository, otherwise a digest of every Go source and
// module file under root (the benchmark's own build directory excluded).
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// millis converts a duration to fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
