package main

import (
	"fmt"
	"time"

	"hbn/internal/chaos"
)

// The -churn benchmark runs the compound fault-injection scenarios
// (internal/chaos) and reports the ingest-visible cost of churn: the
// maximum single write-gate stall a reconfiguration imposed, the p99
// per-batch ingest latency while faults were landing, and the
// conservation ledger (dropped switch load accounted for exactly).
// chaos.Run verifies the conservation invariants internally, so a bench
// run doubles as an end-to-end correctness check under real concurrency.

// jsonChurn is one compound scenario's outcome in -json mode. The
// rolling_* keys match the trajectory recorded in BENCH_pr6.json.
type jsonChurn struct {
	Scenario       string  `json:"scenario"`
	Requests       int64   `json:"requests"`
	Faults         int     `json:"faults"`
	Applied        int     `json:"rolling_faults_applied"`
	MaxStallMS     float64 `json:"rolling_max_stall_ms"`
	P99MS          float64 `json:"rolling_p99_ms"`
	DroppedService int64   `json:"dropped_service_load"`
}

// runChurnBench executes every compound chaos scenario with identical
// seeds and traffic.
func runChurnBench(quick bool, seed int64) ([]jsonChurn, error) {
	base := chaos.Options{
		Seed:       seed,
		Objects:    128,
		Ingesters:  4,
		Batch:      256,
		Batches:    64,
		Shards:     8,
		Background: true,
		// Stretch the stream so scripted faults land mid-traffic.
		Pace: 500 * time.Microsecond,
	}
	if quick {
		base.Objects = 32
		base.Batch = 64
		base.Batches = 16
	}
	total := int64(base.Ingesters * base.Batch * base.Batches)

	var out []jsonChurn
	for _, s := range chaos.Scenarios(total) {
		o := base
		if s.Name == "scaleout-write-storm" {
			o.WriteFrac = 0.8
		}
		res, err := chaos.Run(s, o)
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", s.Name, err)
		}
		out = append(out, jsonChurn{
			Scenario:       s.Name,
			Requests:       res.Requests,
			Faults:         len(s.Faults),
			Applied:        res.FaultsApplied,
			MaxStallMS:     ms(res.MaxIngestStall),
			P99MS:          ms(res.P99),
			DroppedService: res.DroppedServiceLoad,
		})
	}
	return out, nil
}

// printChurnBench renders the -churn results as an aligned table.
func printChurnBench(results []jsonChurn) {
	fmt.Printf("churn benchmark: compound fault scripts under live reconfiguration (%d requests/run)\n",
		results[0].Requests)
	fmt.Printf("%-22s %7s %7s %13s %9s %9s\n",
		"scenario", "faults", "applied", "max-stall-ms", "p99-ms", "dropped")
	for _, r := range results {
		fmt.Printf("%-22s %7d %7d %13.3f %9.3f %9d\n",
			r.Scenario, r.Faults, r.Applied, r.MaxStallMS, r.P99MS, r.DroppedService)
	}
}
