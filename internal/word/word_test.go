package word

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestBottomIsZeroValue(t *testing.T) {
	var w Word
	if !w.IsBottom() {
		t.Fatal("zero Word must be Bottom")
	}
	if w != Bottom {
		t.Fatal("zero Word must equal Bottom")
	}
}

func TestBottomSentinelFields(t *testing.T) {
	if got := Bottom.Value(); got != -1 {
		t.Errorf("Bottom.Value() = %d, want -1", got)
	}
	if got := Bottom.Stage(); got != -1 {
		t.Errorf("Bottom.Stage() = %d, want -1", got)
	}
	if Bottom.String() != "⊥" {
		t.Errorf("Bottom.String() = %q, want ⊥", Bottom.String())
	}
}

func TestPackRoundTrip(t *testing.T) {
	cases := []struct{ value, stage int64 }{
		{0, 0},
		{1, 0},
		{42, 7},
		{MaxValue, 0},
		{0, MaxStage},
		{MaxValue, MaxStage},
	}
	for _, c := range cases {
		w := Pack(c.value, c.stage)
		if w.IsBottom() {
			t.Errorf("Pack(%d,%d) must not be Bottom", c.value, c.stage)
		}
		if got := w.Value(); got != c.value {
			t.Errorf("Pack(%d,%d).Value() = %d", c.value, c.stage, got)
		}
		if got := w.Stage(); got != c.stage {
			t.Errorf("Pack(%d,%d).Stage() = %d", c.value, c.stage, got)
		}
	}
}

func TestPackRoundTripProperty(t *testing.T) {
	prop := func(v uint32, s uint32) bool {
		value := int64(v) & MaxValue
		w := Pack(value, int64(s))
		return !w.IsBottom() && w.Value() == value && w.Stage() == int64(s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackInjectiveProperty(t *testing.T) {
	// Distinct (value, stage) pairs must pack to distinct words: register
	// equality is the only comparison a CAS object ever performs, so any
	// collision would silently merge logically distinct protocol states.
	prop := func(v1, s1, v2, s2 uint32) bool {
		a := Pack(int64(v1)&MaxValue, int64(s1))
		b := Pack(int64(v2)&MaxValue, int64(s2))
		same := int64(v1)&MaxValue == int64(v2)&MaxValue && s1 == s2
		return (a == b) == same
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromValueHasStageZero(t *testing.T) {
	w := FromValue(99)
	if w.Stage() != 0 {
		t.Errorf("FromValue(99).Stage() = %d, want 0", w.Stage())
	}
	if w.Value() != 99 {
		t.Errorf("FromValue(99).Value() = %d, want 99", w.Value())
	}
}

func TestWithStage(t *testing.T) {
	w := Pack(5, 3)
	u := w.WithStage(9)
	if u.Value() != 5 || u.Stage() != 9 {
		t.Errorf("WithStage: got ⟨%d,%d⟩, want ⟨5,9⟩", u.Value(), u.Stage())
	}
	// Original is unchanged (Word is a value type).
	if w.Stage() != 3 {
		t.Errorf("WithStage mutated receiver: stage %d", w.Stage())
	}
}

func TestWithStageOnBottomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithStage on Bottom must panic")
		}
	}()
	_ = Bottom.WithStage(1)
}

func TestPackRangePanics(t *testing.T) {
	for _, c := range []struct{ value, stage int64 }{
		{-1, 0},
		{MaxValue + 1, 0},
		{0, -1},
		{0, MaxStage + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pack(%d,%d) must panic", c.value, c.stage)
				}
			}()
			Pack(c.value, c.stage)
		}()
	}
}

func TestStringForms(t *testing.T) {
	if got := FromValue(7).String(); got != "7" {
		t.Errorf("plain value string = %q, want 7", got)
	}
	if got := Pack(7, 2).String(); got != "⟨7,2⟩" {
		t.Errorf("pair string = %q, want ⟨7,2⟩", got)
	}
}

// TestAppendToMatchesFormat holds String and AppendTo to the fmt rendering
// they replace, on every bit pattern a trace file can carry.
func TestAppendToMatchesFormat(t *testing.T) {
	format := func(w Word) string {
		switch {
		case w.IsBottom():
			return "⊥"
		case w.Stage() == 0:
			return fmt.Sprintf("%d", w.Value())
		default:
			return fmt.Sprintf("⟨%d,%d⟩", w.Value(), w.Stage())
		}
	}
	prop := func(bits uint64) bool {
		w := Word(bits)
		want := format(w)
		return w.String() == want && string(w.AppendTo([]byte("x"))) == "x"+want
	}
	for _, w := range []Word{Bottom, FromValue(0), FromValue(MaxValue), Pack(MaxValue, MaxStage), Pack(0, 1), 1, math.MaxUint64} {
		if !prop(uint64(w)) {
			t.Errorf("word %#x renders %q, want %q", uint64(w), w.String(), format(w))
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBottomDiffersFromEveryValue(t *testing.T) {
	prop := func(v uint32, s uint32) bool {
		return Pack(int64(v)&MaxValue, int64(s)) != Bottom
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
