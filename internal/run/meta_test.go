package run

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// TestMetaRoundTrip: SettingsFromMeta(MetaFromSettings(s)) must rebuild
// equivalent settings for every canonical protocol family — this is what
// makes a trace file (or a run directory) self-describing.
func TestMetaRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"figure1", []Option{
			WithProtocol(core.SingleCAS{}), WithDistinctInputs(2),
			WithFaultyObjects([]int{0}, fault.Unbounded),
		}},
		{"figure2", []Option{
			WithProtocol(core.NewFPlusOne(2)), WithDistinctInputs(3),
			WithFaultyObjects([]int{0, 1}, fault.Unbounded),
		}},
		{"figure3", []Option{
			WithProtocol(core.NewStaged(2, 1)), WithDistinctInputs(3),
			WithAllObjectsFaulty(1),
		}},
		{"silent-retry", []Option{
			WithProtocol(core.NewSilentRetry(2)), WithDistinctInputs(2),
			WithFaultyObjects([]int{0}, 2), WithFaultKind(fault.Silent),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSettings(tc.opts...)
			meta := MetaFromSettings(s)
			got, err := SettingsFromMeta(meta, s.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			if got.Protocol.Name() != s.Protocol.Name() {
				t.Errorf("protocol %q != %q", got.Protocol.Name(), s.Protocol.Name())
			}
			if len(got.Inputs) != len(s.Inputs) {
				t.Errorf("inputs %v != %v", got.Inputs, s.Inputs)
			}
			if len(got.FaultyObjects) != len(s.FaultyObjects) {
				t.Errorf("faulty objects %v != %v", got.FaultyObjects, s.FaultyObjects)
			}
			if got.FaultsPerObject != s.FaultsPerObject {
				t.Errorf("faults/object %d != %d", got.FaultsPerObject, s.FaultsPerObject)
			}
			wantKind := s.Kind
			if wantKind == fault.None {
				wantKind = fault.Overriding
			}
			if got.Kind != wantKind {
				t.Errorf("kind %v != %v", got.Kind, wantKind)
			}
		})
	}
}

// TestMetaRoundTripExec: every artifact records the compiled execution
// form, and reading one back accepts it, accepts a meta without an exec
// entry (predating the compiled form), and refuses the removed interpreted
// form and aggressive reduction with the typed ErrRemovedMode.
func TestMetaRoundTripExec(t *testing.T) {
	t.Run("compiled", func(t *testing.T) {
		s := NewSettings(WithProtocol(core.NewStaged(1, 1)), WithDistinctInputs(2), WithAllObjectsFaulty(1))
		meta := MetaFromSettings(s)
		if got := meta["exec"]; got != ExecForm {
			t.Fatalf("meta exec = %q, want %q", got, ExecForm)
		}
		if _, err := SettingsFromMeta(meta, s.Inputs); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("legacy-meta-replays-compiled", func(t *testing.T) {
		if _, err := SettingsFromMeta(map[string]string{"proto": "figure1", "n": "2"}, nil); err != nil {
			t.Errorf("meta without an exec entry refused: %v", err)
		}
	})

	t.Run("corrupt-exec-refused", func(t *testing.T) {
		_, err := SettingsFromMeta(map[string]string{"proto": "figure1", "n": "2", "exec": "jit"}, nil)
		if err == nil || errors.Is(err, ErrRemovedMode) {
			t.Errorf("unknown exec form in meta: err = %v, want a refusal that is not ErrRemovedMode", err)
		}
	})

	for _, tc := range []struct{ name, key, value string }{
		{"interpreted", "exec", "interpreted"},
		{"aggressive", "reduce", "aggressive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := SettingsFromMeta(map[string]string{"proto": "figure1", "n": "2", tc.key: tc.value}, nil)
			if !errors.Is(err, ErrRemovedMode) || !strings.Contains(err.Error(), tc.key+"="+tc.value) {
				t.Errorf("err = %v, want ErrRemovedMode naming %s=%s", err, tc.key, tc.value)
			}
		})
	}
}

// TestSettingsFromMetaCanonicalInputs: without explicit inputs, the meta's
// process count yields the canonical 10, 11, … inputs every driver uses.
func TestSettingsFromMetaCanonicalInputs(t *testing.T) {
	s, err := SettingsFromMeta(map[string]string{"proto": "figure3", "f": "1", "t": "1", "n": "3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Inputs) != 3 || s.Inputs[0] != 10 || s.Inputs[2] != 12 {
		t.Errorf("canonical inputs = %v", s.Inputs)
	}
}

// TestSettingsFromMetaModelcheckFlags: the flat map the modelcheck CLI
// writes (faulty=-1 meaning "all objects", flag spellings) must parse.
func TestSettingsFromMetaModelcheckFlags(t *testing.T) {
	meta := map[string]string{
		"proto": "staged", "f": "2", "t": "1", "n": "3",
		"fault": "overriding", "unbounded": "false", "faulty": "-1", "dedup": "true",
	}
	s, err := SettingsFromMeta(meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.FaultyObjects) != s.Protocol.Objects() {
		t.Errorf("faulty=-1 must mean all %d objects, got %v", s.Protocol.Objects(), s.FaultyObjects)
	}
	if s.Protocol.Name() != core.NewStaged(2, 1).Name() {
		t.Errorf("protocol = %s", s.Protocol.Name())
	}
}

func TestSettingsFromMetaRejectsUnknown(t *testing.T) {
	if _, err := SettingsFromMeta(map[string]string{"proto": "nope", "n": "2"}, nil); err == nil {
		t.Error("unknown protocol must be refused")
	}
	if _, err := SettingsFromMeta(map[string]string{"proto": "figure1", "fault": "arbitrary", "n": "2"}, nil); err == nil {
		t.Error("unsupported fault kind must be refused")
	}
	if _, err := SettingsFromMeta(map[string]string{"proto": "figure1"}, nil); err == nil {
		t.Error("missing n and inputs must be refused")
	}
}
