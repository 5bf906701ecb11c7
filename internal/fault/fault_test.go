package fault

import (
	"testing"
	"testing/quick"

	"repro/internal/word"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		None:          "none",
		Overriding:    "overriding",
		Silent:        "silent",
		Invisible:     "invisible",
		Arbitrary:     "arbitrary",
		Nonresponsive: "nonresponsive",
		Kind(99):      "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestBudgetLazyFaultyObjectLimit(t *testing.T) {
	b := NewBudget(2, Unbounded)
	if !b.Admits(0) || !b.Admits(7) {
		t.Fatal("fresh budget must admit any object")
	}
	b.Charge(0)
	b.Charge(7)
	if b.Admits(3) {
		t.Error("third distinct object must be rejected with f=2")
	}
	if !b.Admits(0) {
		t.Error("already-faulty object must stay admitted with t=∞")
	}
}

func TestBudgetPerObjectLimit(t *testing.T) {
	b := NewBudget(1, 2)
	b.Charge(5)
	if !b.Admits(5) {
		t.Fatal("second fault on object must be admitted with t=2")
	}
	b.Charge(5)
	if b.Admits(5) {
		t.Error("third fault on object must be rejected with t=2")
	}
	if got := b.Faults(5); got != 2 {
		t.Errorf("Faults(5) = %d, want 2", got)
	}
	if got := b.TotalFaults(); got != 2 {
		t.Errorf("TotalFaults() = %d, want 2", got)
	}
}

func TestBudgetChargeWithoutAdmitPanics(t *testing.T) {
	b := NewBudget(0, Unbounded)
	defer func() {
		if recover() == nil {
			t.Fatal("Charge without admission must panic")
		}
	}()
	b.Charge(1)
}

func TestFixedBudgetRestrictsSet(t *testing.T) {
	b := NewFixedBudget([]int{1, 3}, 1)
	if b.Admits(0) {
		t.Error("object outside fixed set must never be admitted")
	}
	if !b.Admits(1) || !b.Admits(3) {
		t.Error("objects in fixed set must be admitted")
	}
	b.Charge(1)
	if b.Admits(1) {
		t.Error("t=1 exhausted on object 1")
	}
	if !b.Admits(3) {
		t.Error("object 3 budget is independent")
	}
}

func TestBudgetInvariantProperty(t *testing.T) {
	// Property: however faults are charged (always via Admits-then-Charge),
	// the number of faulty objects never exceeds f and no object exceeds t.
	prop := func(objs []uint8, f, tt uint8) bool {
		fN := int(f%4) + 1
		tN := int(tt%3) + 1
		b := NewBudget(fN, tN)
		for _, o := range objs {
			id := int(o % 8)
			if b.Admits(id) {
				b.Charge(id)
			}
		}
		if len(b.FaultyObjects()) > fN {
			return false
		}
		for _, id := range b.FaultyObjects() {
			if b.Faults(id) > tN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewBudgetValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative f": func() { NewBudget(-1, 1) },
		"negative t": func() { NewBudget(1, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNeverPolicy(t *testing.T) {
	p := Never()
	if got := p.Decide(Op{}); got.Kind != None {
		t.Errorf("Never proposed %v", got.Kind)
	}
}

func TestAlwaysPolicy(t *testing.T) {
	p := Always(Overriding)
	if got := p.Decide(Op{}); got.Kind != Overriding {
		t.Errorf("Always(Overriding) proposed %v", got.Kind)
	}
}

func TestRatePolicyDeterministicBySeed(t *testing.T) {
	sample := func(seed int64) []Kind {
		p := Rate(Overriding, 0.5, seed)
		out := make([]Kind, 64)
		for i := range out {
			out[i] = p.Decide(Op{}).Kind
		}
		return out
	}
	a, b := sample(42), sample(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := sample(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 64-draw sequence (suspicious)")
	}
}

func TestRatePolicyExtremes(t *testing.T) {
	never := Rate(Overriding, 0, 1)
	always := Rate(Overriding, 1, 1)
	for i := 0; i < 50; i++ {
		if never.Decide(Op{}).Kind != None {
			t.Fatal("Rate(0) proposed a fault")
		}
		if always.Decide(Op{}).Kind != Overriding {
			t.Fatal("Rate(1) failed to propose")
		}
	}
}

func TestOnObjectsPolicy(t *testing.T) {
	p := OnObjects(Always(Overriding), 2, 5)
	if p.Decide(Op{Object: 2}).Kind != Overriding {
		t.Error("object 2 must fault")
	}
	if p.Decide(Op{Object: 3}).Kind != None {
		t.Error("object 3 must not fault")
	}
}

func TestWhenEffectivePolicy(t *testing.T) {
	over := WhenEffective(Always(Overriding))
	matched := Op{Exp: word.Bottom, Current: word.Bottom, New: word.FromValue(2)}
	mismatched := Op{Exp: word.Bottom, Current: word.FromValue(1), New: word.FromValue(2)}
	if over.Decide(matched).Kind != None {
		t.Error("overriding on matching CAS is unobservable and must be dropped")
	}
	if over.Decide(mismatched).Kind != Overriding {
		t.Error("overriding on mismatching CAS must pass through")
	}

	silent := WhenEffective(Always(Silent))
	if silent.Decide(matched).Kind != Silent {
		t.Error("silent on matching CAS must pass through")
	}
	if silent.Decide(mismatched).Kind != None {
		t.Error("silent on mismatching CAS is unobservable and must be dropped")
	}

	other := WhenEffective(Always(Arbitrary))
	if other.Decide(matched).Kind != Arbitrary {
		t.Error("non-filtered kinds must pass through")
	}
}

func TestWhenEffectiveDropsNoOpWrites(t *testing.T) {
	// Writing the register's current content back is unobservable for
	// both one-sided faults (the post-state satisfies Φ) and must be
	// filtered, per Definition 1.
	cur := word.FromValue(5)
	over := WhenEffective(Always(Overriding))
	if got := over.Decide(Op{Exp: word.Bottom, Current: cur, New: cur}).Kind; got != None {
		t.Errorf("overriding with New == Current must be dropped, got %v", got)
	}
	silent := WhenEffective(Always(Silent))
	if got := silent.Decide(Op{Exp: cur, Current: cur, New: cur}).Kind; got != None {
		t.Errorf("silent with New == Current must be dropped, got %v", got)
	}
}
