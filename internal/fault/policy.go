package fault

import (
	"repro/internal/seeded"
	"repro/internal/word"
)

// Op describes a CAS invocation about to execute, as seen by a fault policy.
// The adversary of the paper is state-aware, so the current register content
// is exposed; benign random policies simply ignore it.
type Op struct {
	Object  int       // object id
	Proc    int       // invoking process id
	Exp     word.Word // expected value argument
	New     word.Word // new value argument
	Current word.Word // register content on entry (R′ in the paper)
}

// Proposal is a policy's verdict for one invocation. For Arbitrary faults,
// Write carries the value to store; for Invisible faults, Return carries the
// incorrect old value to report (⊥ means "unspecified", letting the object
// pick the default corruption of pretending the opposite comparison
// outcome). Both are ignored for other kinds.
type Proposal struct {
	Kind   Kind
	Write  word.Word
	Return word.Word
}

// NoFault is the proposal for a correct execution of the operation.
var NoFault = Proposal{Kind: None}

// Policy decides, per CAS invocation, whether to propose a functional fault.
// The proposal is subject to budget admission and to observability: a
// proposed fault that would not deviate from the CAS postconditions (e.g. an
// overriding fault when the comparison would succeed anyway) is a no-op and
// is not charged.
type Policy interface {
	Decide(op Op) Proposal
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(op Op) Proposal

// Decide implements Policy.
func (f PolicyFunc) Decide(op Op) Proposal { return f(op) }

// Never proposes no faults: every object behaves per its specification.
func Never() Policy { return PolicyFunc(func(Op) Proposal { return NoFault }) }

// Always proposes the given fault kind on every invocation. Combined with a
// budget this yields the paper's worst-case adversary ("all CAS executions
// may incorrectly succeed", Section 4.2).
func Always(kind Kind) Policy {
	return PolicyFunc(func(Op) Proposal { return Proposal{Kind: kind} })
}

// Rate proposes the given fault kind on each invocation independently with
// probability p, using a deterministic seeded source so runs are repeatable.
// It models soft-error-style stochastic faults (Section 1).
func Rate(kind Kind, p float64, seed int64) Policy {
	rng := seeded.New(seed)
	return PolicyFunc(func(Op) Proposal {
		if rng.Float64() < p {
			return Proposal{Kind: kind}
		}
		return NoFault
	})
}

// OnObjects restricts an inner policy to the given object ids; other objects
// never fault. This expresses the adversary committing to a faulty set
// independently of the budget's bookkeeping.
func OnObjects(inner Policy, objects ...int) Policy {
	set := make(map[int]bool, len(objects))
	for _, id := range objects {
		set[id] = true
	}
	return PolicyFunc(func(op Op) Proposal {
		if !set[op.Object] {
			return NoFault
		}
		return inner.Decide(op)
	})
}

// PerObject routes each object to its own policy — the "mix of functional
// faults" Definition 3's discussion allows: different objects in one
// execution may deviate toward different relaxed postconditions. Objects
// without an entry never fault.
func PerObject(policies map[int]Policy) Policy {
	cloned := make(map[int]Policy, len(policies))
	for id, p := range policies {
		cloned[id] = p
	}
	return PolicyFunc(func(op Op) Proposal {
		if p, ok := cloned[op.Object]; ok {
			return p.Decide(op)
		}
		return NoFault
	})
}

// WhenEffective wraps a policy so that Overriding is proposed only when the
// comparison would genuinely fail (Current ≠ Exp) and Silent only when it
// would genuinely succeed (Current = Exp) — and, in both cases, only when
// the written value would actually change the register (New ≠ Current;
// otherwise the post-state satisfies Φ and no fault occurs per Definition
// 1). This concentrates a bounded budget on invocations where the fault is
// observable, the strongest use of t faults available to the adversary.
func WhenEffective(inner Policy) Policy {
	return PolicyFunc(func(op Op) Proposal {
		p := inner.Decide(op)
		switch p.Kind {
		case Overriding:
			if op.Current == op.Exp || op.New == op.Current {
				return NoFault
			}
		case Silent:
			if op.Current != op.Exp || op.New == op.Current {
				return NoFault
			}
		}
		return p
	})
}
