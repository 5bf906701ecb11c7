package explore

import (
	"context"
	"fmt"

	"repro/internal/run"
)

// Subsets enumerates all size-k subsets of {0, .., n-1} in lexicographic
// order — the adversary's possible commitments to a faulty-object set.
func Subsets(n, k int) [][]int {
	if k < 0 || k > n {
		return nil
	}
	var out [][]int
	subset := make([]int, k)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			out = append(out, append([]int(nil), subset...))
			return
		}
		for i := start; i <= n-(k-idx); i++ {
			subset[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
	return out
}

// CheckAllSubsets checks the protocol once per size-f subset of its objects
// as the faulty set — the full quantifier of Definition 3 ("at most f
// faulty objects", adversary's choice). Subsets are examined in
// lexicographic order, each explored by the engine's workers; it returns
// the first violating outcome, or the combined outcome if every subset
// verifies.
func (e *Engine) CheckAllSubsets(ctx context.Context, s *run.Settings, f int) (*Outcome, error) {
	if s.Protocol == nil {
		return nil, fmt.Errorf("explore: no protocol")
	}
	objects := s.Protocol.Objects()
	subsets := Subsets(objects, f)
	if len(subsets) == 0 {
		return nil, fmt.Errorf("explore: no size-%d subsets of %d objects", f, objects)
	}
	total := &Outcome{Complete: true}
	for _, sub := range subsets {
		c := *s
		c.FaultyObjects = sub
		out, err := e.Check(ctx, &c)
		if err != nil {
			return nil, err
		}
		total.Executions += out.Executions
		if out.MaxProcSteps > total.MaxProcSteps {
			total.MaxProcSteps = out.MaxProcSteps
		}
		if out.MaxFaults > total.MaxFaults {
			total.MaxFaults = out.MaxFaults
		}
		if !out.Complete {
			total.Complete = false
		}
		if out.Violation != nil {
			total.Violation = out.Violation
			return total, nil
		}
	}
	return total, nil
}
