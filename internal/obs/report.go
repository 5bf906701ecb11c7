package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// ReportSchema identifies the report format; consumers (scripts/bench.sh,
// dashboards) key on it before trusting any field.
const ReportSchema = "modelcheck-report/v1"

// Report is the machine-readable final run report written by
// `modelcheck -report out.json`: the verdict, the counterexample if one
// was found, the full metric snapshot, and the event-log type counts. It
// replaces stderr scraping as the interface between a run and the bench
// pipeline.
type Report struct {
	// Schema is always ReportSchema.
	Schema string `json:"schema"`
	// Run records the settings that produced the run (protocol, n, f, t,
	// fault kind, workers, ...), as flat strings for easy diffing.
	Run map[string]string `json:"run,omitempty"`
	// Verdict is the run outcome.
	Verdict Verdict `json:"verdict"`
	// Counterexample carries the violating execution when one was found
	// (driver-defined shape; modelcheck writes path/schedule/violation).
	Counterexample any `json:"counterexample,omitempty"`
	// Metrics is the full registry snapshot at the end of the run.
	Metrics Snapshot `json:"metrics"`
	// Events counts the event-log records written, per type.
	Events map[string]int64 `json:"events,omitempty"`
}

// Verdict is the outcome section of a Report.
type Verdict struct {
	// Result is "verified", "violation", or "incomplete" (cap or deadline
	// hit before the tree was exhausted).
	Result string `json:"result"`
	// Complete reports a full enumeration of the execution tree.
	Complete bool `json:"complete"`
	// Executions is the number of completed replays.
	Executions int64 `json:"executions"`
	// Violations is the number of violating executions seen.
	Violations int64 `json:"violations"`
	// Workers is the engine's parallelism.
	Workers int `json:"workers"`
	// MaxProcSteps and MaxFaults are the per-run extremes observed.
	MaxProcSteps int `json:"max_proc_steps"`
	MaxFaults    int `json:"max_faults"`
	// ElapsedNS is the exploration wall clock (across resumes).
	ElapsedNS int64 `json:"elapsed_ns"`
	// FirstViolationNS is the latency to the first violation (0 if none).
	FirstViolationNS int64 `json:"first_violation_ns,omitempty"`
	// Violation names the violated requirement ("" when none).
	Violation string `json:"violation,omitempty"`
}

// Validate checks the report against its documented schema: the schema
// tag, a known result string, internally consistent counts, and — when
// per-worker execution counters are present — that they sum to the
// reported Executions (restored checkpoint executions accounted via the
// explore.executions.restored counter).
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("obs: report schema %q, want %q", r.Schema, ReportSchema)
	}
	switch r.Verdict.Result {
	case "verified", "violation", "incomplete":
	default:
		return fmt.Errorf("obs: unknown verdict result %q", r.Verdict.Result)
	}
	if r.Verdict.Result == "violation" && r.Verdict.Violations == 0 {
		return fmt.Errorf("obs: violation verdict with zero violations")
	}
	if r.Verdict.Executions < 0 {
		return fmt.Errorf("obs: negative executions %d", r.Verdict.Executions)
	}
	var workerSum int64
	var haveWorkers bool
	for name, v := range r.Metrics.Counters {
		if strings.HasPrefix(name, "explore.worker.") && strings.HasSuffix(name, ".executions") {
			workerSum += v
			haveWorkers = true
		}
	}
	if haveWorkers {
		workerSum += r.Metrics.Counters["explore.executions.restored"]
		if workerSum != r.Verdict.Executions {
			return fmt.Errorf("obs: per-worker executions sum to %d, verdict reports %d",
				workerSum, r.Verdict.Executions)
		}
	}
	return nil
}

// WriteReport validates the report and writes it, pretty-printed, to path.
func WriteReport(path string, r *Report) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
