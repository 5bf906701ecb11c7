package valency

import (
	"fmt"
	"slices"

	"repro/internal/run"
)

// SoloValence computes the set of values a given process decides across all
// solo extensions of the state identified by prefix — extensions in which
// only that process takes steps (fault choices still range over the
// adversary's options). This is the probe the impossibility proofs apply to
// successor states of a critical state: if two states are indistinguishable
// to process p, p's solo runs from both decide the same values, which
// contradicts the states having different valencies.
func SoloValence(s *run.Settings, prefix []int, proc int) (Valence, error) {
	if proc < 0 || proc >= len(s.Inputs) {
		return Valence{}, fmt.Errorf("valency: process %d out of range", proc)
	}
	v, _, _, err := walk(s, prefix, proc, proc)
	return v, err
}

// IndistinguishableTo reports whether two states look the same to a process
// in the operational sense the proofs use: the process's solo runs from
// both states decide exactly the same value sets. (True state-level
// indistinguishability implies this; the converse direction is what the
// contradiction needs.)
func IndistinguishableTo(s *run.Settings, prefixA, prefixB []int, proc int) (bool, error) {
	a, err := SoloValence(s, prefixA, proc)
	if err != nil {
		return false, err
	}
	b, err := SoloValence(s, prefixB, proc)
	if err != nil {
		return false, err
	}
	return slices.Equal(a.Values, b.Values), nil
}
