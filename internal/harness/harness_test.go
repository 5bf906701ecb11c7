package harness

import (
	"bytes"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("registered %d experiments, want 10", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E3"); !ok {
		t.Error("E3 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 must not resolve")
	}
}

// Each experiment runs in quick mode and must report its claim reproduced.
func testExperiment(t *testing.T, id string) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, quickOpts()); err != nil {
		t.Fatalf("%s failed: %v\noutput:\n%s", id, err, buf.String())
	}
	if !strings.Contains(buf.String(), "|") {
		t.Errorf("%s produced no table:\n%s", id, buf.String())
	}
}

func TestE1(t *testing.T)  { testExperiment(t, "E1") }
func TestE2(t *testing.T)  { testExperiment(t, "E2") }
func TestE3(t *testing.T)  { testExperiment(t, "E3") }
func TestE4(t *testing.T)  { testExperiment(t, "E4") }
func TestE5(t *testing.T)  { testExperiment(t, "E5") }
func TestE6(t *testing.T)  { testExperiment(t, "E6") }
func TestE7(t *testing.T)  { testExperiment(t, "E7") }
func TestE9(t *testing.T)  { testExperiment(t, "E9") }
func TestE10(t *testing.T) { testExperiment(t, "E10") }

func TestE8(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	testExperiment(t, "E8")
}

// TestCostOrderingCheck pins E8's shape check on the CAS/decide column:
// the measured order passes with a summary naming the f=1 rows, and a
// figure3 row that costs no more than figure2 fails it.
func TestCostOrderingCheck(t *testing.T) {
	rows := []costRow{
		{name: "baseline single CAS", procs: 2, substrate: "atomics", cas: 1},
		{name: "figure2 f=1", procs: 2, substrate: "atomics", cas: 2},
		{name: "figure3 f=1,t=1", procs: 2, substrate: "atomics", cas: 3.5},
		{name: "figure3 f=1,t=1", procs: 2, substrate: "simulator", cas: 1},
		{name: "figure3 f=3,t=1", procs: 4, substrate: "atomics", cas: 0.5},
	}
	summary, err := checkCostOrdering(rows)
	if err != nil {
		t.Fatal(err)
	}
	want := "cost ordering holds: baseline single CAS (1.00 CAS/decide) < figure2 f=1 (2.00) < figure3 f=1,t=1 (3.50)"
	if summary != want {
		t.Errorf("summary = %q, want %q", summary, want)
	}

	rows[2].cas = 2
	if _, err := checkCostOrdering(rows); err == nil || !strings.Contains(err.Error(), "inverted") {
		t.Errorf("figure3 at figure2's cost: err = %v, want an inverted-ordering error", err)
	}
	if _, err := checkCostOrdering(rows[:2]); err == nil {
		t.Error("a missing figure3 row must fail the check")
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, quickOpts()); err != nil {
		t.Fatalf("RunAll: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"} {
		if !strings.Contains(out, "=== "+id) {
			t.Errorf("output missing section %s", id)
		}
	}
	if strings.Contains(out, "FAILED") {
		t.Error("output contains FAILED")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("a", "bb")
	tb.Add(1, "x")
	tb.Add(2.5, "yyyy")
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "1") || !strings.Contains(lines[3], "2.50") {
		t.Errorf("rows malformed:\n%s", out)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	tb := NewTable("a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong arity must panic")
		}
	}()
	tb.Add(1)
}
