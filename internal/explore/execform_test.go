package explore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/run"
	"repro/internal/store"
	"repro/internal/trace/export"
)

// TestManifestHashesUnchanged pins the settings hash of three run
// directories to the values earlier versions wrote, so run directories they
// created still resume: the manifest keeps recording the compiled
// execution form, and reduction only when it is on.
func TestManifestHashesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		meta map[string]string
		want string
	}{
		{"figure3-f1-t1-n2-unbounded",
			map[string]string{"proto": "figure3", "f": "1", "t": "1", "n": "2", "unbounded": "true"},
			"05f5aa99835b228a"},
		{"figure2-f1-n5-one-faulty-unbounded-dedup-reduce",
			map[string]string{"proto": "figure2", "f": "1", "n": "5", "faulty": "1", "unbounded": "true", "reduce": "on"},
			"b88c79c3ceae626e"},
		{"figure3-f3-t1-n5-dedup-reduce",
			map[string]string{"proto": "figure3", "f": "3", "t": "1", "n": "5", "reduce": "on"},
			"ad180dccde979860"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := run.SettingsFromMeta(tc.meta, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.Dedup = true // advisory: must not move the hash
			m, err := ManifestFor(s, false)
			if err != nil {
				t.Fatal(err)
			}
			m.FormatVersion = store.FormatVersion // as store.Create stamps it
			if got := m.Hash(); got != tc.want {
				t.Errorf("settings hash = %s, want %s", got, tc.want)
			}
			if m.Exec != run.ExecForm {
				t.Errorf("manifest exec = %q, want %q", m.Exec, run.ExecForm)
			}
		})
	}
}

// removedModes are the two settings earlier versions could record and this
// one no longer runs, as they appear in a manifest and in its meta.
var removedModes = []struct {
	key, value string
	apply      func(m *store.Manifest)
}{
	{"exec", "interpreted", func(m *store.Manifest) { m.Exec, m.Extra["exec"] = "interpreted", "interpreted" }},
	{"reduce", "aggressive", func(m *store.Manifest) { m.Reduce, m.Extra["reduce"] = "aggressive", "aggressive" }},
}

// wantRemovedMismatch checks the refusal of an artifact recorded under a
// removed mode: a store.ErrMismatch that is also run.ErrRemovedMode and
// names the mode.
func wantRemovedMismatch(t *testing.T, op string, err error, mode string) {
	t.Helper()
	if !errors.Is(err, store.ErrMismatch) || !errors.Is(err, run.ErrRemovedMode) {
		t.Errorf("%s: err = %v, want store.ErrMismatch and run.ErrRemovedMode", op, err)
		return
	}
	if !strings.Contains(err.Error(), mode) {
		t.Errorf("%s: refusal %q does not name %s", op, err, mode)
	}
}

// TestRemovedModesRefused: a run directory whose manifest records the
// removed interpreted engine form or aggressive reduction, or one the
// removed multi-process work ledger wrote, is refused by a resume with the
// typed mismatch that names the mode. The manifests are written the way
// earlier versions wrote them, with a valid settings hash, so only the mode
// check can refuse them. A ledger directory holds no checkpoint, so
// without the refusal a resume would restart it from the root.
func TestRemovedModesRefused(t *testing.T) {
	resume := func(t *testing.T, name string, m store.Manifest, ledger bool) {
		cfg := benchConfig()
		runDir := filepath.Join(t.TempDir(), "run")
		st, err := store.Create(runDir, m)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if ledger {
			// The ledger's participants stamped its epoch into the
			// manifest, unhashed, and kept their records under ledger/.
			mf := filepath.Join(runDir, "manifest.json")
			data, err := os.ReadFile(mf)
			if err != nil {
				t.Fatal(err)
			}
			data = bytes.Replace(data, []byte("{"), []byte(`{"ledger_epoch": 1760000000000000000,`), 1)
			if err := os.WriteFile(mf, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(runDir, "ledger", "results"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		eng := &Engine{}
		wantRemovedMismatch(t, "resume", eng.Attach(with(&cfg, run.WithResume(runDir))), name)
		eng.Close()
	}
	for _, mode := range removedModes {
		name := mode.key + "=" + mode.value
		t.Run(name, func(t *testing.T) {
			cfg := benchConfig()
			m, err := ManifestFor(&cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			mode.apply(&m)
			resume(t, name, m, false)
		})
	}
	t.Run("ledger", func(t *testing.T) {
		cfg := benchConfig()
		m, err := ManifestFor(&cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		resume(t, "ledger", m, true)
	})
}

// TestExplainRefusesExecFormMismatch: -explain replays a capture on the
// compiled form only. A capture whose header records the removed
// interpreted form or aggressive reduction is refused with
// run.ErrRemovedMode; one recording the compiled form, or predating the
// exec entry, replays.
func TestExplainRefusesExecFormMismatch(t *testing.T) {
	dir := t.TempDir()
	out, err := CheckWith(context.Background(), violatingOpts(run.WithTraceDir(dir, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatal("expected a violation")
	}
	capture := globOne(t, dir, "violation-*.jsonl")
	x, err := export.ReadFile(capture)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Meta.Run["exec"]; got != run.ExecForm {
		t.Fatalf("capture records exec=%q, want %q", got, run.ExecForm)
	}
	if err := ExplainFile(io.Discard, capture); err != nil {
		t.Errorf("compiled capture refused: %v", err)
	}

	rewrite := func(name string, edit func(meta map[string]string)) string {
		y := *x
		y.Meta.Run = map[string]string{}
		for k, v := range x.Meta.Run {
			y.Meta.Run[k] = v
		}
		edit(y.Meta.Run)
		path := filepath.Join(dir, name)
		if err := export.WriteExecution(path, &y); err != nil {
			t.Fatal(err)
		}
		return path
	}
	legacy := rewrite("legacy.jsonl", func(meta map[string]string) { delete(meta, "exec") })
	if err := ExplainFile(io.Discard, legacy); err != nil {
		t.Errorf("capture without an exec entry refused: %v", err)
	}
	for _, mode := range removedModes {
		path := rewrite(mode.value+".jsonl", func(meta map[string]string) { meta[mode.key] = mode.value })
		err := ExplainFile(io.Discard, path)
		if !errors.Is(err, run.ErrRemovedMode) || !strings.Contains(err.Error(), mode.key+"="+mode.value) {
			t.Errorf("%s=%s capture: err = %v, want run.ErrRemovedMode naming the mode", mode.key, mode.value, err)
		}
		y, err := export.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := run.SettingsFromMeta(x.Meta.Run, x.Meta.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := Explain(io.Discard, s, y); !errors.Is(err, run.ErrRemovedMode) {
			t.Errorf("Explain of a %s=%s capture: err = %v, want run.ErrRemovedMode", mode.key, mode.value, err)
		}
	}
}
