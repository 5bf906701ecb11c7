package run

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
)

// The flat string-map rendering of run settings ("meta") is the shared
// self-description format of durable artifacts: the checkpoint manifest's
// Extra section, the -report Run section, and the trace/v1 header all carry
// it, and SettingsFromMeta reconstructs a runnable Settings from it — so a
// run directory or a trace file alone suffices to re-run (or replay) the
// execution it records.

// MetaFromSettings renders the settings as the flat map. Only the four
// canonical protocol families are reversible; an unknown protocol is
// recorded under its display name and refused by SettingsFromMeta.
func MetaFromSettings(s *Settings) map[string]string {
	m := map[string]string{
		"n":         strconv.Itoa(len(s.Inputs)),
		"fault":     s.Kind.String(),
		"faulty":    strconv.Itoa(len(s.FaultyObjects)),
		"unbounded": strconv.FormatBool(s.FaultsPerObject == fault.Unbounded),
		"dedup":     strconv.FormatBool(s.Dedup),
		"f":         "0",
		"t":         strconv.Itoa(s.FaultsPerObject),
	}
	if s.Kind == fault.None {
		m["fault"] = fault.Overriding.String()
	}
	if s.Reduce != ReduceOff {
		// Recorded only when reduction is on: artifacts from before the
		// reducer existed carry no key and keep meaning "off", so their
		// hashes and replays are unchanged.
		m["reduce"] = s.Reduce.String()
	}
	if s.FaultsPerObject == fault.Unbounded {
		m["t"] = "0"
	}
	if s.Protocol != nil {
		m["exec"] = ExecForm
	}
	switch p := s.Protocol.(type) {
	case core.SingleCAS:
		m["proto"] = "figure1"
	case core.FPlusOne:
		m["proto"] = "figure2"
		m["f"] = strconv.Itoa(p.F)
	case core.Staged:
		m["proto"] = "figure3"
		m["f"] = strconv.Itoa(p.F)
		m["t"] = strconv.Itoa(p.T)
	case core.SilentRetry:
		m["proto"] = "silent-retry"
		m["t"] = strconv.Itoa(p.B)
	case nil:
	default:
		m["proto"] = p.Name()
	}
	return m
}

// SettingsFromMeta reconstructs runnable settings from the flat map: the
// protocol (from proto/f/t), the canonical inputs (from n, unless explicit
// inputs are given), the faulty-object set (from faulty/unbounded/t), and
// the fault kind. It is the inverse of MetaFromSettings and of the
// modelcheck CLI's flag rendering. Meta recording a removed mode is refused
// (CheckModes).
func SettingsFromMeta(meta map[string]string, inputs []int64) (*Settings, error) {
	get := func(key string, def int) (int, error) {
		v, ok := meta[key]
		if !ok {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("run: meta %s=%q: %w", key, v, err)
		}
		return n, nil
	}
	f, err := get("f", 1)
	if err != nil {
		return nil, err
	}
	t, err := get("t", 1)
	if err != nil {
		return nil, err
	}
	n, err := get("n", len(inputs))
	if err != nil {
		return nil, err
	}

	var proto core.Protocol
	switch strings.ToLower(meta["proto"]) {
	case "figure1", "single":
		proto = core.SingleCAS{}
	case "figure2", "fplusone":
		proto = core.NewFPlusOne(f)
	case "figure3", "staged":
		proto = core.NewStaged(f, t)
	case "silent-retry", "silent":
		proto = core.NewSilentRetry(t)
	default:
		return nil, fmt.Errorf("run: unknown protocol %q in meta", meta["proto"])
	}

	var kind fault.Kind
	switch strings.ToLower(meta["fault"]) {
	case "", "overriding":
		kind = fault.Overriding
	case "silent":
		kind = fault.Silent
	default:
		return nil, fmt.Errorf("run: unsupported fault kind %q in meta", meta["fault"])
	}

	numFaulty, err := get("faulty", -1)
	if err != nil {
		return nil, err
	}
	if numFaulty < 0 {
		numFaulty = proto.Objects()
	}
	ids := make([]int, numFaulty)
	for i := range ids {
		ids[i] = i
	}
	perObject := t
	if meta["unbounded"] == "true" {
		perObject = fault.Unbounded
	}

	if inputs == nil {
		if n <= 0 {
			return nil, fmt.Errorf("run: meta names no process count (n) and no inputs were given")
		}
		inputs = make([]int64, n)
		for i := range inputs {
			inputs[i] = int64(10 + i)
		}
	}

	opts := []Option{
		WithProtocol(proto),
		WithInputs(inputs...),
		WithFaultyObjects(ids, perObject),
		WithFaultKind(kind),
	}
	if err := CheckModes(meta["exec"], meta["reduce"]); err != nil {
		return nil, err
	}
	mode, _ := ParseReduceMode(meta["reduce"]) // CheckModes accepted it
	opts = append(opts, WithReduce(mode))
	return NewSettings(opts...), nil
}
