package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The probes time the engine's innermost loops on the workload's own
// configuration, outside the engine: seeded random executions on the
// compiled step machine, then the canonical-state fingerprint and the
// visited-set probe over the event streams of such executions.
const (
	stepProbeRuns  = 10_000
	dedupProbeRuns = 500
	// probeFaultRate is the chance that an observable CAS faults, within
	// the workload's fault budget.
	probeFaultRate = 0.4
)

type probes struct {
	nsPerStep, nsPerExecution, nsPerFingerprint, nsPerVisit float64
}

func (p probes) set(m metrics) {
	m.set("step.ns_per_step", "ns", p.nsPerStep)
	m.set("step.ns_per_execution", "ns", p.nsPerExecution)
	m.set("dedup.ns_per_fingerprint", "ns", p.nsPerFingerprint)
	m.set("dedup.ns_per_visit", "ns", p.nsPerVisit)
}

// replayer runs seeded random executions of one configuration the way the
// engine replays leaves: one compiled program over one bank and budget,
// reset between executions.
type replayer struct {
	budget *fault.Budget
	bank   *object.Bank
	runner *sim.Stepped
	cfg    sim.SteppedConfig
}

func newReplayer(w *workload, inputs []int64, seed int64) (*replayer, error) {
	stepper, ok := core.Compile(w.proto)
	if !ok {
		return nil, fmt.Errorf("%s has no compiled form", w.proto.Name())
	}
	budget := fault.NewFixedBudget(w.faultyObjects(), w.perObject)
	policy := fault.WhenEffective(fault.Rate(fault.Overriding, probeFaultRate, seed))
	bank := object.NewBank(w.proto.Objects(), budget, policy)
	return &replayer{
		budget: budget,
		bank:   bank,
		runner: sim.NewStepped(len(inputs)),
		cfg: sim.SteppedConfig{
			Procs:     len(inputs),
			Program:   run.NewSteppedExec(stepper, bank, inputs),
			Scheduler: sim.NewRandom(seed),
			StepLimit: w.proto.StepBound(len(inputs)),
			Log:       trace.New(),
		},
	}, nil
}

// once runs one execution and returns its number of steps.
func (r *replayer) once() (int, error) {
	r.budget.Reset()
	r.bank.Reset()
	r.cfg.Log.Reset()
	res, err := r.runner.Run(context.Background(), r.cfg)
	if err != nil && !errors.Is(err, sim.ErrWaitFreedom) {
		return 0, err
	}
	steps := 0
	for _, s := range res.Steps {
		steps += s
	}
	return steps, nil
}

func (b *bench) probe() (probes, error) {
	var p probes
	root := b.spans.begin("probe", 0)
	defer root.end()

	r, err := newReplayer(b.w, b.inputs, b.seed)
	if err != nil {
		return p, err
	}
	streams := make([][]trace.Event, dedupProbeRuns)
	events := 0
	for i := range streams {
		if _, err := r.once(); err != nil {
			return p, err
		}
		streams[i] = slices.Clone(r.cfg.Log.Events())
		events += len(streams[i])
	}

	if r, err = newReplayer(b.w, b.inputs, b.seed+1); err != nil {
		return p, err
	}
	sp := b.spans.begin("step.run", root.id)
	start := time.Now()
	steps := 0
	for i := 0; i < stepProbeRuns; i++ {
		n, err := r.once()
		if err != nil {
			return p, err
		}
		steps += n
	}
	d := float64(time.Since(start).Nanoseconds())
	sp.end()
	p.nsPerStep = ratio(d, float64(steps))
	p.nsPerExecution = d / stepProbeRuns

	tracker := dedup.NewTracker(b.w.proto.Objects(), b.inputs, true)
	fps := make([]dedup.Fingerprint, 0, events)
	sp = b.spans.begin("dedup.fingerprint", root.id)
	start = time.Now()
	for _, s := range streams {
		tracker.Reset()
		for _, e := range s {
			tracker.Observe(e)
			fps = append(fps, tracker.Fingerprint())
		}
	}
	p.nsPerFingerprint = ratio(float64(time.Since(start).Nanoseconds()), float64(events))
	sp.end()

	// Each state is visited under the schedule prefix that reached it.
	paths := make([][]int, len(streams))
	for i, s := range streams {
		paths[i] = make([]int, len(s))
		for j, e := range s {
			paths[i][j] = e.Proc
		}
	}
	set := dedup.NewSet(0)
	sp = b.spans.begin("dedup.visit", root.id)
	start = time.Now()
	k := 0
	for i, s := range streams {
		for j := range s {
			set.Visit(fps[k], paths[i][:j+1])
			k++
		}
	}
	p.nsPerVisit = ratio(float64(time.Since(start).Nanoseconds()), float64(events))
	sp.end()
	return p, nil
}
