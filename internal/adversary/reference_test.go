package adversary

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/refsim"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/word"
)

// runReference executes the setup on the goroutine-gated reference
// simulator: each protocol's Decide code, the literal transcription of the
// paper's figures, where runStepped runs the compiled step machines.
func runReference(proto core.Protocol, a *setup) (*sim.Result, error) {
	return refsim.Run(refsim.Config{
		Programs:  refsim.Programs(proto, a.bank, a.inputs),
		Scheduler: a.Scheduler,
		StepLimit: a.StepLimit,
		Log:       a.Log,
		Observer:  a.Observer,
	})
}

// adversaryRun is one adversary execution: the covering state (nil for the
// data fault), the setup whose log recorded it, and the runner's result and
// error.
type adversaryRun struct {
	st  *coveringState
	a   *setup
	res *sim.Result
	err error
}

// diff describes the first difference between a compiled run and a
// reference run ("" when none).
func (c adversaryRun) diff(r adversaryRun) string {
	switch {
	case fmt.Sprint(c.err) != fmt.Sprint(r.err):
		return fmt.Sprintf("error: compiled %v, reference %v", c.err, r.err)
	case (c.res == nil) != (r.res == nil):
		return fmt.Sprintf("result: compiled %v, reference %v", c.res, r.res)
	case c.res == nil:
		return ""
	}
	cv, rv := run.Evaluate(c.a.inputs, c.res, c.err), run.Evaluate(r.a.inputs, r.res, r.err)
	if cv.String() != rv.String() {
		return fmt.Sprintf("verdict: compiled %s, reference %s", cv, rv)
	}
	if c.st != nil && (!reflect.DeepEqual(c.st.covered, r.st.covered) || !reflect.DeepEqual(c.st.haltSteps, r.st.haltSteps)) {
		return fmt.Sprintf("cover: compiled %v halted after %v, reference %v halted after %v",
			c.st.covered, c.st.haltSteps, r.st.covered, r.st.haltSteps)
	}
	if !reflect.DeepEqual(c.res.Steps, r.res.Steps) || !reflect.DeepEqual(c.res.Decided, r.res.Decided) ||
		!reflect.DeepEqual(c.res.Decisions, r.res.Decisions) || c.res.Stopped != r.res.Stopped {
		return fmt.Sprintf("result: compiled steps %v decided %v decisions %v stopped %v, reference %v %v %v %v",
			c.res.Steps, c.res.Decided, c.res.Decisions, c.res.Stopped,
			r.res.Steps, r.res.Decided, r.res.Decisions, r.res.Stopped)
	}
	ce, re := c.a.Log.Events(), r.a.Log.Events()
	for i := range max(len(ce), len(re)) {
		if i >= len(ce) || i >= len(re) || ce[i] != re[i] {
			return fmt.Sprintf("trace: compiled %d events, reference %d, first difference at event %d", len(ce), len(re), i)
		}
	}
	return ""
}

// TestAdversariesMatchReference holds the adversaries on the compiled step
// machines to the same adversaries on the reference simulator: each
// constructor builds one setup per runner, and the two executions must
// agree on the verdict, the covered objects and halt steps, every process's
// steps and decision, the stopped flag, and the trace event for event. The
// grid runs the covering and tightness executions against every protocol
// family, Figure 3 at f = 1..5 and t = 1, 2, and the data fault on every
// object with three forged values at n = 2 and 3.
func TestAdversariesMatchReference(t *testing.T) {
	protos := []core.Protocol{core.SingleCAS{}, core.NewFPlusOne(1), core.NewFPlusOne(2), core.NewSilentRetry(2)}
	for f := 1; f <= 5; f++ {
		for tb := 1; tb <= 2; tb++ {
			protos = append(protos, core.NewStaged(f, tb))
		}
	}
	runners := [2]func(core.Protocol, *setup) (*sim.Result, error){runStepped, runReference}
	check := func(name string, c, r adversaryRun) {
		t.Helper()
		if d := c.diff(r); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	for _, proto := range protos {
		for _, tightness := range []bool{false, true} {
			n := proto.Objects() + 2
			if tightness {
				n--
			}
			var runs [2]adversaryRun
			for i, runner := range runners {
				st, a := newCovering(proto, inputs(n), tightness)
				res, err := runner(proto, a)
				runs[i] = adversaryRun{st: st, a: a, res: res, err: err}
			}
			check(fmt.Sprintf("covering %s tightness=%v", proto.Name(), tightness), runs[0], runs[1])
		}
		for _, n := range []int{2, 3} {
			in := inputs(n)
			for obj := 0; obj < proto.Objects(); obj++ {
				for _, value := range []word.Word{word.FromValue(in[1]), word.Pack(in[1], 1), word.Pack(in[n-1], 5)} {
					var runs [2]adversaryRun
					for i, runner := range runners {
						a := newDataFault(proto, in, obj, value)
						res, err := runner(proto, a)
						runs[i] = adversaryRun{a: a, res: res, err: err}
					}
					check(fmt.Sprintf("data fault %s n=%d object %d value %s", proto.Name(), n, obj, value), runs[0], runs[1])
				}
			}
		}
	}
}
