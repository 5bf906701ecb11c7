// Command experiments regenerates every reproduction table of DESIGN.md /
// EXPERIMENTS.md: one experiment per paper result (Figures 1–3, Theorems
// 4–6, 18, 19, the consensus-hierarchy observation, the fault taxonomy, and
// the cost measurements).
//
// Usage:
//
//	experiments               # run everything (full sweeps)
//	experiments -run E5       # run one experiment
//	experiments -quick        # smaller sweeps
//	experiments -list         # list experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/run"
)

func main() {
	var (
		runID    = flag.String("run", "", "run only the experiment with this id (e.g. E3)")
		quick    = flag.Bool("quick", false, "smaller sweeps and sample counts")
		seed     = flag.Int64("seed", 1, "seed for randomized components")
		workers  = flag.Int("workers", 0, "exploration parallelism (0 = GOMAXPROCS); tables are identical for any value")
		reduce   = flag.String("reduce", "off", "partial-order reduction for exhaustive explorations: off | on; verdicts and counterexamples are unchanged, execution counts shrink; fixed-policy rows always run unreduced")
		list     = flag.Bool("list", false, "list experiments and exit")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /pprof/) on this address while experiments run, e.g. :6060")
		events   = flag.String("events", "", "write the structured event log (JSONL) to this file, or '-' for stderr")
		traceDir = flag.String("trace", "", "capture execution traces of every exploration (trace/v1 JSONL + Perfetto JSON) into this directory")
		traceN   = flag.Int("trace-sample", 0, "with -trace, also capture one in N passing executions (0 = violations only)")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	// One registry and one event log see every exploration the harness
	// drives, so a long `experiments` sweep is observable the same way a
	// `modelcheck -http` run is.
	reg := obs.NewRegistry()
	var evLog *obs.Log
	if *events != "" {
		w := os.Stderr
		if *events != "-" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		evLog = obs.NewLog(w, obs.Info)
		defer evLog.Flush() //nolint:errcheck // best-effort on exit
	}
	if *httpAddr != "" {
		addr, shutdown, err := obs.Serve(*httpAddr, obs.Handler(reg, nil))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "experiments: introspection on http://%s (/metrics /pprof/)\n", addr)
		defer shutdown() //nolint:errcheck // exiting anyway
	}

	reduceMode, err := run.ParseReduceMode(*reduce)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	opts := harness.NewOptions(run.WithQuick(*quick), run.WithSeed(*seed),
		run.WithWorkers(*workers), run.WithMetrics(reg), run.WithEvents(evLog),
		run.WithTraceDir(*traceDir, *traceN), run.WithReduce(reduceMode))
	if *runID != "" {
		e, ok := harness.ByID(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", *runID)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s ===\nclaim: %s\n\n", e.ID, e.Title, e.Claim)
		if err := harness.RunOne(os.Stdout, e, opts); err != nil {
			evLog.Flush() //nolint:errcheck // best-effort before exit
			fmt.Fprintf(os.Stderr, "experiments: %s FAILED: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("\nreproduced: %s\n", e.Claim)
		return
	}

	if err := harness.RunAll(os.Stdout, opts); err != nil {
		evLog.Flush() //nolint:errcheck // best-effort before exit
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
