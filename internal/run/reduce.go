package run

import (
	"errors"
	"fmt"
)

// ReduceMode selects whether the exploration engine prunes redundant
// interleavings via dynamic partial-order reduction (sleep sets over the
// choice path plus branch-time process-symmetry skipping; see
// docs/MODEL.md, "Partial-order reduction").
//
// The reduction mode changes WHICH schedules are replayed, so it
// participates in manifests and trace meta: a resumed run and -explain
// both refuse artifacts recorded under a different mode — their choice
// paths are coordinates in a different tree.
type ReduceMode int

const (
	// ReduceOff (the default) explores every schedule the fault-aware
	// chooser enumerates, exactly as before reduction existed.
	ReduceOff ReduceMode = iota
	// ReduceSafe prunes only schedules provably equivalent to a
	// lexicographically smaller explored one, preserving the engine's
	// lex-least counterexample guarantee and exact verdicts.
	ReduceSafe
)

// String renders the mode as its meta/flag spelling.
func (m ReduceMode) String() string {
	if m == ReduceSafe {
		return "on"
	}
	return "off"
}

// ParseReduceMode is the inverse of ReduceMode.String (CLI flags, meta).
// The removed aggressive mode is refused with ErrRemovedMode.
func ParseReduceMode(s string) (ReduceMode, error) {
	switch s {
	case "", "off", "false":
		return ReduceOff, nil
	case "on", "true", "safe":
		return ReduceSafe, nil
	case "aggressive":
		return ReduceOff, removedMode("reduce", s)
	default:
		return ReduceOff, fmt.Errorf("run: unknown reduction mode %q (want off or on)", s)
	}
}

// ExecForm is the execution form every artifact records under the meta key
// "exec" and in store.Manifest.Exec: the compiled step machines, the only
// form the engine runs. The key keeps its value so that settings hashes
// and trace headers match the ones earlier versions wrote.
const ExecForm = "compiled"

// ErrRemovedMode reports a mode this version no longer runs, recorded in an
// artifact (or asked for on a command line): the goroutine-gated
// ("interpreted") engine form, aggressive reduction, or a run directory of
// the multi-process work ledger. The wrapping message names the mode; match
// with errors.Is.
var ErrRemovedMode = errors.New("run: removed mode")

// removedMode refuses the meta value key=value.
func removedMode(key, value string) error {
	return fmt.Errorf("%w: %s=%s is no longer supported (the engine runs exec=%s with reduce off or on)",
		ErrRemovedMode, key, value, ExecForm)
}

// CheckModes decides whether an artifact's recorded execution form and
// reduction mode can still be replayed. It refuses the removed modes an
// artifact records: SettingsFromMeta applies it to trace headers and
// manifest meta, and the exploration engine to the manifest fields. An
// empty exec predates the compiled form and replays on it.
func CheckModes(exec, reduce string) error {
	switch exec {
	case "", ExecForm:
	case "interpreted":
		return removedMode("exec", exec)
	default:
		return fmt.Errorf("run: unknown execution form %q in meta (want %s)", exec, ExecForm)
	}
	_, err := ParseReduceMode(reduce)
	return err
}
