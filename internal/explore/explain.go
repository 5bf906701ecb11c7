package explore

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/trace/export"
)

// Explain verifies a captured execution trace against the configuration and
// renders a human-readable narrative of what happened: which CAS
// invocations mis-fired and which relaxed postcondition Φ′ each deviation
// took, what every process decided, whether the fault pattern stayed within
// the committed (f, t) budget, and which theorem's tolerance bound the
// execution confirms or escapes.
//
// Verification is by replay: the trace's choice path is re-executed through
// the deterministic simulator and the recorded events are compared
// event-for-event with the replayed ones. A trace that does not reproduce —
// wrong configuration, corrupted file, stale capture — is refused with the
// first diverging event.
func Explain(w io.Writer, s *run.Settings, x *export.Execution) error {
	if x.Meta.Kind != "execution" {
		return fmt.Errorf("explore: cannot explain a %q trace (need an execution capture)", x.Meta.Kind)
	}
	if len(x.Events) == 0 {
		return fmt.Errorf("explore: trace holds no events")
	}
	if err := run.CheckModes(x.Meta.Run["exec"], x.Meta.Run["reduce"]); err != nil {
		return fmt.Errorf("explore: explain: %w", err)
	}
	if err := checkReduceMode(s, x.Meta.Run); err != nil {
		return err
	}
	ce, err := Replay(s, x.Meta.Path)
	if err != nil {
		return fmt.Errorf("explore: explain: replay: %w", err)
	}
	replayed := ce.Trace.Events()
	if diff := diffEvents(x.Events, replayed); diff != "" {
		return fmt.Errorf("explore: explain: trace does not reproduce under this configuration: %s", diff)
	}
	verdict := "ok"
	if !ce.Verdict.OK() {
		verdict = string(ce.Verdict.Violation)
	}
	if x.Meta.Verdict != "" && verdict != x.Meta.Verdict {
		return fmt.Errorf("explore: explain: replay verdict %q, trace records %q", verdict, x.Meta.Verdict)
	}

	audit := spec.AuditTrace(ce.Trace)
	fmt.Fprintf(w, "configuration : %s\n", describeSettings(s, x.Meta.Run))
	fmt.Fprintf(w, "replay        : verified — %d events identical, verdict %s\n", len(replayed), verdict)
	if !ce.Verdict.OK() {
		fmt.Fprintf(w, "violation     : %s — %s\n", ce.Verdict.Violation, ce.Verdict.Detail)
	}
	fmt.Fprintf(w, "schedule      : %v\n", ce.Schedule)

	fmt.Fprintf(w, "\nwhat happened:\n")
	for _, e := range x.Events {
		if e.Kind == trace.EventCAS && e.Fault != fault.None {
			fmt.Fprintf(w, "  %s\n", explainFault(e))
		}
	}
	decided := false
	for _, e := range x.Events {
		if e.Kind == trace.EventDecide {
			decided = true
			fmt.Fprintf(w, "  step %3d: p%d decided %s\n", e.Index, e.Proc, e.Value)
		}
	}
	if !decided {
		fmt.Fprintf(w, "  no process decided\n")
	}

	fmt.Fprintf(w, "\nfault budget:\n  %s\n", describeAudit(audit))
	fmt.Fprintf(w, "\ntolerance bound:\n  %s\n", toleranceNarrative(s, audit, ce.Verdict.OK()))
	return nil
}

// ExplainFile explains the trace/v1 file at path, reconstructing the
// configuration from the trace's own sealed run meta. A capture recorded
// under a removed mode is refused (run.ErrRemovedMode). Every refusal is
// one line naming the file.
func ExplainFile(w io.Writer, path string) error {
	x, err := export.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := run.SettingsFromMeta(x.Meta.Run, x.Meta.Inputs)
	if err != nil {
		return fmt.Errorf("%w (trace %s)", err, path)
	}
	fmt.Fprintf(w, "trace         : %s (%s, captured by worker %d)\n", path, x.Meta.Schema, x.Meta.Worker)
	if err := Explain(w, s, x); err != nil {
		return fmt.Errorf("%w (trace %s)", err, path)
	}
	return nil
}

// checkReduceMode refuses to verify a capture under a different
// partial-order reduction mode than the one that produced it: reduced
// choice paths are coordinates in the reduced tree, so replaying one under
// another mode consumes the wrong branch alternatives. Captures from before
// reduction existed carry no reduce entry and replay with reduction off.
func checkReduceMode(s *run.Settings, meta map[string]string) error {
	recorded := meta["reduce"]
	if recorded == "" {
		recorded = run.ReduceOff.String()
	}
	if resolved := s.Reduce.String(); resolved != recorded {
		return fmt.Errorf("explore: explain: trace was captured with reduction %s but this configuration replays with %s; rerun with the matching reduction mode (-reduce %s)",
			recorded, resolved, recorded)
	}
	return nil
}

// diffEvents compares the recorded and replayed event sequences and
// describes the first divergence in one line ("" when identical).
func diffEvents(want, got []trace.Event) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("event %d differs: trace %s, replay %s", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("trace records %d events, replay produced %d", len(want), len(got))
	}
	return ""
}

// explainFault narrates one faulty CAS step: what was observed, what the
// sequential specification Φ demanded, and which relaxed postcondition Φ′
// the deviation satisfies instead.
func explainFault(e trace.Event) string {
	st := spec.StateOf(e)
	var b strings.Builder
	fmt.Fprintf(&b, "step %3d: p%d's CAS(O%d, exp=%s, new=%s) mis-fired with a fault of kind %s — ",
		e.Index, e.Proc, e.Object, e.Exp, e.New, strings.ToUpper(e.Fault.String()))
	switch spec.Classify(st) {
	case fault.Overriding:
		fmt.Fprintf(&b, "the register held %s (≠ exp), so Φ demands it stay %s with old=%s; instead %s was written. "+
			"The deviation satisfies Φ′_overriding (R = new ∧ old = R′): the comparison branch was overridden.",
			e.Pre, e.Pre, e.Pre, e.Post)
	case fault.Silent:
		fmt.Fprintf(&b, "the register held %s (= exp), so Φ demands %s be written with old=%s; instead the write was dropped and the register stayed %s. "+
			"The deviation satisfies Φ′_silent (R = R′ ∧ old = R′): the successful branch fired silently.",
			e.Pre, e.New, e.Pre, e.Post)
	case fault.Invisible:
		fmt.Fprintf(&b, "the write behaviour followed Φ but the returned old value %s is wrong (the register held %s). "+
			"The deviation satisfies Φ′_invisible.", e.Old, e.Pre)
	default:
		fmt.Fprintf(&b, "observed %s, wrote %s, returned old=%s — outside every structured Φ′ (arbitrary).",
			e.Pre, e.Post, e.Old)
	}
	return b.String()
}

// describeSettings renders the configuration line from the live settings,
// cross-labelled with the trace's sealed meta when available.
func describeSettings(s *run.Settings, meta map[string]string) string {
	proto := meta["proto"]
	if proto == "" {
		proto = s.Protocol.Name()
	}
	kind := s.Kind
	if kind == fault.None {
		kind = fault.Overriding
	}
	return fmt.Sprintf("%s (%s), %d processes, inputs %v, %s faults on objects %v (t=%s)",
		proto, s.Protocol.Name(), len(s.Inputs), s.Inputs, kind,
		s.FaultyObjects, perObjectLabel(s.FaultsPerObject))
}

func perObjectLabel(t int) string {
	if t == fault.Unbounded {
		return "∞"
	}
	return fmt.Sprintf("%d", t)
}

// describeAudit renders the Definition 2/3 account of the execution.
func describeAudit(a *spec.Audit) string {
	ids := a.FaultyObjects()
	sort.Ints(ids)
	if len(ids) == 0 {
		return fmt.Sprintf("%d CAS invocations audited, no faults manifested", a.Total)
	}
	parts := make([]string, len(ids))
	total := 0
	for i, id := range ids {
		n := a.ObjectFaults(id)
		total += n
		parts[i] = fmt.Sprintf("O%d: %d", id, n)
	}
	s := fmt.Sprintf("%d CAS invocations audited, %d faults on %d objects (%s)",
		a.Total, total, len(ids), strings.Join(parts, ", "))
	if len(a.Mismatches) > 0 {
		s += fmt.Sprintf(" — %d classification mismatches (framework bug!)", len(a.Mismatches))
	}
	return s
}

// toleranceNarrative places the execution against the paper's tolerance
// bounds: which theorem the configuration lives under and whether the
// observed fault pattern stayed inside or escaped its (f, t) budget.
func toleranceNarrative(s *run.Settings, a *spec.Audit, ok bool) string {
	n := len(s.Inputs)
	switch p := s.Protocol.(type) {
	case core.Staged:
		within := a.Tolerable(p.F, p.T)
		if n > p.F+1 {
			return fmt.Sprintf("Theorem 6's staged protocol tolerates (f=%d, t=%d) functional faults only for n ≤ f+1 = %d processes; "+
				"this run uses n=%d — the Theorem 19 impossibility regime (n ≥ f+2), where no f-object protocol tolerates t ≥ 1 faults per object, so a violating execution must exist.",
				p.F, p.T, p.F+1, n)
		}
		if within && !ok {
			return fmt.Sprintf("the execution stays within Theorem 6's (f=%d, t=%d) budget yet violates — this would contradict Theorem 6 and indicates a framework bug.", p.F, p.T)
		}
		if within {
			return fmt.Sprintf("the execution stays within Theorem 6's (f=%d, t=%d) budget, which the staged protocol tolerates for n=%d ≤ f+1.", p.F, p.T, n)
		}
		return fmt.Sprintf("the adversary exceeded Theorem 6's (f=%d, t=%d) budget — outside the staged protocol's tolerance claim.", p.F, p.T)
	case core.SingleCAS:
		if n <= 2 {
			return "Theorem 4: the single-CAS protocol solves consensus for n=2 processes under one overriding-faulty object; a violation here would contradict it."
		}
		return fmt.Sprintf("Theorem 18: with n=%d ≥ 3 processes, one faulty CAS object already admits violating executions of the single-CAS protocol.", n)
	case core.FPlusOne:
		used := len(a.FaultyObjects())
		if used > p.F {
			return fmt.Sprintf("Theorem 5's f+1-object protocol tolerates at most f=%d faulty objects; this execution manifested faults on %d objects — outside the bound.", p.F, used)
		}
		return fmt.Sprintf("Theorem 5: the f+1-object protocol (f=%d) tolerates this execution's %d faulty objects with unbounded faults each.", p.F, used)
	case core.SilentRetry:
		return fmt.Sprintf("silent-fault regime (Section 3.4): the retrying protocol decides provided each object suffers at most B=%d silent faults; beyond that, wait-freedom is lost, not safety.", p.B)
	default:
		return "no tolerance theorem is on file for this protocol."
	}
}
