// Impossibility, step by step: the covering argument of Theorem 19
// executed live against Figure 3, with the proof's anatomy narrated from
// the actual trace — and the valency analysis of Section 5 computed for the
// smallest instance.
//
//	go run ./examples/impossibility
package main

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/trace"
	"repro/internal/valency"
)

func main() {
	const f = 2
	proto := core.NewStaged(f, 1)
	inputs := []int64{10, 11, 12, 13} // n = f+2 processes, distinct inputs

	fmt.Printf("protocol: %s — provably (f=%d, t=1, n=%d)-tolerant (Theorem 6)\n",
		proto.Name(), f, f+1)
	fmt.Printf("running it with n = f+2 = %d processes, per the Theorem 19 proof:\n\n", f+2)

	res, err := adversary.Covering(proto, inputs)
	if err != nil {
		panic(err)
	}

	fmt.Println("phase 1 — p0 runs alone until it decides (wait-freedom + validity):")
	fmt.Printf("  p0 decided %s after %d steps\n\n", res.Sim.Decisions[0], res.Sim.Steps[0])

	fmt.Println("phase 2 — each coverer runs alone until its first CAS on a fresh object;")
	fmt.Println("          that CAS manifests ONE overriding fault, then the coverer halts:")
	for i, obj := range res.Covered {
		fmt.Printf("  p%d covered O%d (halted after %d steps)\n", i+1, obj, res.HaltedAfterSteps[i])
	}
	fmt.Printf("  faults used: %d — exactly the (f=%d, t=1) budget\n\n", len(res.Trace.Faults()), f)

	fmt.Println("phase 3 — the prober runs alone; every trace of p0 has been overwritten:")
	prober := len(inputs) - 1
	fmt.Printf("  p%d decided %s after %d steps\n\n", prober, res.Sim.Decisions[prober], res.Sim.Steps[prober])

	fmt.Printf("verdict: %s\n\n", res.Verdict)

	fmt.Println("the faulty steps, from the actual execution trace:")
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.EventCAS && e.Fault != fault.None {
			fmt.Printf("  %s\n", e)
		}
	}

	fmt.Println("\n--- tightness: same attack, one process fewer (n = f+1) ---")
	tight, err := adversary.CoveringTightness(proto, inputs[:f+1])
	if err != nil {
		panic(err)
	}
	fmt.Printf("after resuming the halted coverers: %s\n", tight.Verdict)

	fmt.Println("\n--- the valency view (Section 5's proof machinery, computed) ---")
	vc := run.NewSettings(run.WithProtocol(core.NewStaged(1, 1)), run.WithInputs(10, 11),
		run.WithFaultyObjects([]int{0}, 1))
	v, err := valency.Compute(vc, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("initial state of figure3(f=1,t=1), n=2: %s\n", v)
	crit, err := valency.FindCritical(vc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("critical state found at depth %d: every enabled step is a decision step\n",
		len(crit.Prefix))
	for c, ch := range crit.Children {
		fmt.Printf("  step alternative %d → %v-valent\n", c, ch.Values)
	}
}
