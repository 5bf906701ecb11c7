package explore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/word"
)

// TestCompiledMatchesInterpreted is the equivalence gate of the compiled
// execution form (scripts/check.sh runs it by name): for every protocol
// with a Stepper, a full covering sweep — n = 2 processes, f = 1 faulty
// object, unbounded faults per object — is enumerated leaf for leaf through
// the engine's compiled form and the goroutine-gated reference (CrossCheck),
// comparing verdicts, schedules, decisions, step counts, fault tallies, and
// complete trace logs. Any divergence fails with the lexicographically
// least diverging leaf.
func TestCompiledMatchesInterpreted(t *testing.T) {
	cases := []struct {
		name string
		cfg  run.Settings
	}{
		{"single-cas", run.Settings{
			Protocol:        core.SingleCAS{},
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}},
		{"f-plus-one", run.Settings{
			Protocol:        core.NewFPlusOne(1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}},
		{"staged", run.Settings{
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}},
		{"silent-retry", run.Settings{
			Protocol:        core.NewSilentRetry(1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
			Kind:            fault.Silent,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.MaxExecutions = 2_000_000
			rep, err := CrossCheck(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Diverged {
				t.Fatalf("forms diverged after %d executions at leaf %v:\n%s",
					rep.Executions, rep.Path, rep.Detail)
			}
			if !rep.Complete {
				t.Fatalf("sweep hit the %d-execution cap before completing (%d executions)",
					cfg.MaxExecutions, rep.Executions)
			}
			t.Logf("%s: %d executions identical under both forms", tc.name, rep.Executions)
		})
	}
}

// TestCrossCheckDetectsDivergence pins that the differential checker is not
// vacuous: a protocol whose Stepper deliberately disagrees with its Decide
// must be flagged.
func TestCrossCheckDetectsDivergence(t *testing.T) {
	cfg := run.Settings{
		Protocol:        brokenProtocol{},
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   10_000,
	}
	rep, err := CrossCheck(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged {
		t.Fatalf("broken stepper not flagged: %+v", rep)
	}
	if len(rep.Path) == 0 && rep.Executions != 1 {
		t.Errorf("divergence not pinned to a leaf: %+v", rep)
	}
}

// brokenProtocol is SingleCAS with a Stepper that decides its own input
// instead of the CAS winner — a seeded equivalence bug.
type brokenProtocol struct {
	core.SingleCAS
}

func (brokenProtocol) Compile() core.Stepper { return brokenStepper{} }

type brokenStepper struct{}

func (brokenStepper) Begin(input int64) core.State {
	core.ValidateInput(input)
	return core.State{Out: input}
}

func (brokenStepper) Step(st *core.State, env core.Env) (bool, int64) {
	env.CAS(0, 0, 0) // wrong arguments: never installs the input
	return true, st.Out
}

func (brokenStepper) Pending(*core.State) (int, word.Word, word.Word) { return 0, 0, 0 }
