package explore

import (
	"context"

	"repro/internal/run"
)

// Replay re-executes the single execution identified by a choice path
// (as recorded in Counterexample.Path) under the same settings and returns
// its counterexample record. Because the simulator is deterministic, the
// replay reproduces the original execution event for event — the standard
// way to inspect, shrink, or export a violation found during exploration.
func Replay(s *run.Settings, path []int) (*Counterexample, error) {
	kind, _, compiled, err := prepare(s, nil, nil)
	if err != nil {
		return nil, err
	}
	c := &chooser{path: append([]int(nil), path...)}
	es := newExecState(s, kind, compiled, c, nil)
	defer es.close()
	verdict, _, _, err := es.runLeaf(context.Background())
	if err != nil {
		return nil, err
	}
	return es.counterexample(verdict), nil
}
