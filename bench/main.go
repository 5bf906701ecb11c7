// Command bench measures the model checker's time to a verdict. It runs one
// workload for a fixed wall-clock budget, checks every verdict against the
// answer the paper predicts, and prints one JSON result line: end-to-end
// metrics, or with -trace 1 per-layer metrics from a traced run. Run it
// from the repository root through the build wrapper:
//
//	bash bench/run.sh --workload prove-replay --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metrics and the baseline.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// baselineJSON records the baseline runs and the host they were made on.
//
//go:embed baseline.json
var baselineJSON []byte

type host struct {
	Nproc    int    `json:"nproc"`
	CPUModel string `json:"cpu_model"`
}

func main() {
	cfg := defaultConfig()
	var name string
	var traced int
	flag.StringVar(&name, "workload", "", "workload to run (prove-replay, prove-pruned, refute, durable, tables)")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for the process inputs, the harness and the probe schedules")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "wall-clock seconds of verdicts to measure")
	flag.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.work, "work", cfg.work, "directory for run directories, traces and span files")
	flag.Parse()
	if traced != 0 && traced != 1 || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	cfg.traced = traced == 1
	w, err := lookup(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	rep, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	prov := provenance(w, cfg, rep)
	if mismatch, ok := prov["host_mismatch"]; ok {
		fmt.Fprintln(os.Stderr, "bench: host mismatch:", mismatch)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := out.Encode(rep.result); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// provenance records where and on what a result was measured, and flags a
// host that differs from the one the baseline was recorded on.
func provenance(w *workload, cfg config, rep *report) map[string]any {
	h := host{Nproc: runtime.NumCPU(), CPUModel: cpuModel()}
	p := map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"traced":     cfg.traced,
		"nproc":      h.Nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  h.CPUModel,
		"go_version": runtime.Version(),
		"commit":     commit(),
		"setups":     cfg.setups,
		"verdicts":   rep.verdicts,
	}
	if cfg.traced {
		p["probe_runs"] = map[string]int{"step": stepProbeRuns, "dedup": dedupProbeRuns}
		p["spans"] = len(rep.spans)
		p["spans_file"] = rep.spansFile
	}
	var base struct{ Host host }
	if err := json.Unmarshal(baselineJSON, &base); err != nil || base.Host != h {
		p["host_mismatch"] = fmt.Sprintf("baseline host %d × %q, this host %d × %q",
			base.Host.Nproc, base.Host.CPUModel, h.Nproc, h.CPUModel)
	}
	return p
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git in the working directory;
// a checkout without git metadata reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
