package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
)

// costConfig is one row of the E8 cost sweep.
type costConfig struct {
	name      string
	proto     core.Protocol
	faulty    int     // number of faulty objects (0 = fault-free)
	boundedT  int     // per-object fault bound; fault.Unbounded for ∞
	faultRate float64 // per-invocation fault probability
	procs     int     // concurrent goroutines
}

// substrate runs one consensus instance on one bank. setup builds one
// round's bank and everything the round is seeded with (fault stream,
// scheduler), and returns the bank's CAS-invocation counter and the decide
// that runs the consensus instance, the only part measureCost times. The
// measurement loop — construction, decide, op accounting, agreement check —
// is one code path for both substrates.
type substrate struct {
	name  string
	setup func(cfg costConfig, round int, seed int64) (ops func() int64, decide func() ([]int64, error))
}

// realAtomics races native goroutines on the lock-free environment: the
// deployment-shaped measurement.
func realAtomics() substrate {
	return substrate{
		name: "atomics",
		setup: func(cfg costConfig, round int, seed int64) (func() int64, func() ([]int64, error)) {
			var bank *atomicx.Bank
			if cfg.faulty > 0 {
				bank = atomicx.NewFaultyBank(cfg.proto.Objects(),
					fault.NewFixedBudget(objectIDs(cfg.faulty), cfg.boundedT),
					cfg.faultRate, seed+int64(round))
			} else {
				bank = atomicx.NewBank(cfg.proto.Objects())
			}
			return bank.Ops, func() ([]int64, error) {
				// Real atomics need no per-process binding: the calling
				// goroutine is the process, and the bank is its
				// environment.
				results := make([]int64, cfg.procs)
				var wg sync.WaitGroup
				for g := 0; g < cfg.procs; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						results[g] = cfg.proto.Decide(bank, int64(100+g))
					}(g)
				}
				wg.Wait()
				return results, nil
			}
		},
	}
}

// simulated runs the same instance on the simulator's stepped runner under a
// seeded random schedule — the model-checking-shaped measurement, for
// calibrating simulated against native op counts. It runs the protocol's
// compiled step machines, as the model checker and the samplers do.
func simulated() substrate {
	return substrate{
		name: "simulator",
		setup: func(cfg costConfig, round int, seed int64) (func() int64, func() ([]int64, error)) {
			policy := fault.Never()
			if cfg.faulty > 0 {
				policy = fault.Rate(fault.Overriding, cfg.faultRate, seed+int64(round))
			}
			bank := object.NewBank(cfg.proto.Objects(),
				fault.NewFixedBudget(objectIDs(cfg.faulty), cfg.boundedT), policy)
			stepper, ok := core.Compile(cfg.proto)
			if !ok {
				return bank.Ops, func() ([]int64, error) {
					return nil, fmt.Errorf("protocol %s has no compiled form (core.Stepper)", cfg.proto.Name())
				}
			}
			inputs := make([]int64, cfg.procs)
			for g := range inputs {
				inputs[g] = int64(100 + g)
			}
			stepped := sim.NewStepped(cfg.procs)
			simCfg := sim.SteppedConfig{
				Procs:     cfg.procs,
				Program:   run.NewSteppedExec(stepper, bank, inputs),
				Scheduler: sim.NewRandom(seed + int64(round)),
				StepLimit: cfg.proto.StepBound(cfg.procs),
			}
			return bank.Ops, func() ([]int64, error) {
				res, err := stepped.Run(context.Background(), simCfg)
				if err != nil {
					return nil, err
				}
				results := make([]int64, cfg.procs)
				for g := range results {
					if !res.Decided[g] {
						return nil, fmt.Errorf("process %d did not decide", g)
					}
					results[g] = res.Decisions[g].Value()
				}
				return results, nil
			}
		},
	}
}

// measureCost times `rounds` one-shot consensus instances on the given
// substrate, returning ns per decide call and the mean CAS invocations per
// decide call (counted by the bank, uniformly across substrates). Only the
// consensus runs are timed: each round's bank, fault stream and scheduler
// are built before its timer starts. Their generators are seeded lazily
// (internal/seeded), so the register slots the decide's draws read are
// computed, and timed, inside the decide.
func measureCost(cfg costConfig, sub substrate, rounds int, seed int64) (nsPerDecide float64, casPerDecide float64, err error) {
	var totalOps int64
	var elapsed time.Duration
	for r := 0; r < rounds; r++ {
		ops, decide := sub.setup(cfg, r, seed)
		start := time.Now()
		results, err := decide()
		elapsed += time.Since(start)
		if err != nil {
			return 0, 0, fmt.Errorf("round %d (%s/%s): %w", r, cfg.name, sub.name, err)
		}
		totalOps += ops()
		for g := 1; g < len(results); g++ {
			if results[g] != results[0] {
				return 0, 0, fmt.Errorf("round %d: disagreement %v under %s/%s",
					r, results, cfg.name, sub.name)
			}
		}
	}
	decides := float64(rounds * cfg.procs)
	nsPerDecide = float64(elapsed.Nanoseconds()) / decides
	casPerDecide = float64(totalOps) / decides
	return nsPerDecide, casPerDecide, nil
}

// runE8 measures the practical cost of each construction: the baseline
// single CAS is cheapest, Figure 2 costs f+1 CAS steps, and Figure 3 pays
// for its stage budget t·(4f+f²) — the price of surviving with zero
// reliable objects. Each configuration is measured on real atomics and,
// at the lowest concurrency, cross-checked on the simulator through the
// same measurement loop.
func runE8(w io.Writer, opts Options) error {
	rounds := 3000
	simRounds := 300
	procsList := []int{2, 4, 8}
	if opts.Quick {
		rounds = 300
		simRounds = 50
		procsList = []int{2, 4}
	}

	t := NewTable("protocol", "objects", "procs", "substrate", "fault cfg", "ns/decide", "CAS/decide")
	var rows []costRow
	for _, procs := range procsList {
		// Figure 3 instances are only fault-tolerant up to f+1 processes
		// (Theorem 6, tight by Theorem 19 — see E5), so each staged row
		// is sized with f = procs−1 to match the requested concurrency.
		configs := []costConfig{
			{"baseline single CAS", core.SingleCAS{}, 0, 0, 0, procs},
			{"figure2 f=1", core.NewFPlusOne(1), 1, fault.Unbounded, 0.3, procs},
			{"figure2 f=3", core.NewFPlusOne(3), 3, fault.Unbounded, 0.3, procs},
			{fmt.Sprintf("figure3 f=%d,t=1", procs-1), core.NewStaged(procs-1, 1), procs - 1, 1, 0.3, procs},
			{fmt.Sprintf("figure3 f=%d,t=2", procs-1), core.NewStaged(procs-1, 2), procs - 1, 2, 0.3, procs},
		}
		for _, cfg := range configs {
			if cfg.proto.MaxProcs() != 0 && cfg.procs > cfg.proto.MaxProcs() && cfg.faulty > 0 {
				return fmt.Errorf("E8: misconfigured row %q: %d procs exceeds tolerance bound %d",
					cfg.name, cfg.procs, cfg.proto.MaxProcs())
			}
			faultCfg := "fault-free"
			if cfg.faulty > 0 {
				tStr := "∞"
				if cfg.boundedT != fault.Unbounded {
					tStr = fmt.Sprintf("%d", cfg.boundedT)
				}
				faultCfg = fmt.Sprintf("f=%d t=%s p=%.1f", cfg.faulty, tStr, cfg.faultRate)
			}
			subs := []struct {
				substrate
				rounds int
			}{{realAtomics(), rounds}}
			if procs == procsList[0] {
				subs = append(subs, struct {
					substrate
					rounds int
				}{simulated(), simRounds})
			}
			for _, sub := range subs {
				ns, cas, err := measureCost(cfg, sub.substrate, sub.rounds, opts.Seed)
				if err != nil {
					return fmt.Errorf("E8: %w", err)
				}
				t.Add(cfg.name, cfg.proto.Objects(), procs, sub.name, faultCfg, ns, cas)
				rows = append(rows, costRow{name: cfg.name, procs: procs, substrate: sub.name, cas: cas})
			}
		}
	}
	t.Render(w)

	summary, err := checkCostOrdering(rows)
	if err != nil {
		return fmt.Errorf("E8: %w", err)
	}
	fmt.Fprintf(w, "\n%s\n", summary)
	return nil
}

// costRow is one measured row of the E8 table, as the ordering check reads
// it.
type costRow struct {
	name      string
	procs     int
	substrate string
	cas       float64 // bank-counted CAS invocations per decide
}

// costOrder is the cost ordering E8 checks, cheapest first: the f=1 rows at
// two processes, the one concurrency where Figure 3 runs with f=1.
var costOrder = []string{"baseline single CAS", "figure2 f=1", "figure3 f=1,t=1"}

// checkCostOrdering checks the shape of the E8 table on its CAS/decide
// column: baseline < figure2 f=1 < figure3 f=1,t=1 on the two-process
// atomics rows. The CAS counts are deterministic bounds, not timings, so
// the check cannot flake on a loaded machine: the baseline does one CAS
// per process, Figure 2 does exactly f+1 = 2, and in Figure 3 some process
// must run through every stage, maxStage+1 = 6 CAS, so the mean over two
// processes is at least 3.5. If the order inverts, the harness is
// mismeasuring. It returns the summary line for the table.
func checkCostOrdering(rows []costRow) (string, error) {
	cas := make([]float64, len(costOrder))
	for i, name := range costOrder {
		found := false
		for _, r := range rows {
			if r.name == name && r.procs == 2 && r.substrate == "atomics" {
				cas[i], found = r.cas, true
				break
			}
		}
		if !found {
			return "", fmt.Errorf("cost ordering: no two-process atomics row for %s", name)
		}
	}
	for i := 1; i < len(cas); i++ {
		if cas[i] <= cas[i-1] {
			return "", fmt.Errorf("cost ordering inverted: %s (%.2f CAS/decide) <= %s (%.2f CAS/decide)",
				costOrder[i], cas[i], costOrder[i-1], cas[i-1])
		}
	}
	return fmt.Sprintf("cost ordering holds: %s (%.2f CAS/decide) < %s (%.2f) < %s (%.2f)",
		costOrder[0], cas[0], costOrder[1], cas[1], costOrder[2], cas[2]), nil
}
