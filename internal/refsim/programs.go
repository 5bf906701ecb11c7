package refsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/word"
)

// Programs builds one program per input value, each executing the
// protocol's Decide against the shared bank.
func Programs(proto core.Protocol, bank *object.Bank, inputs []int64) []Program {
	progs := make([]Program, len(inputs))
	for i, input := range inputs {
		input := input
		progs[i] = func(p *Proc) word.Word {
			return word.FromValue(proto.Decide(Bind(bank, p), input))
		}
	}
	return progs
}

// BoundPrograms builds one program per input value with the object
// environment pre-bound to the arena's stable process handles, so repeated
// replays do not allocate a binding per program invocation. The returned
// programs are tied to those handles: they must only run on the arena that
// produced procs (procs[i] is the handle the arena passes to program i).
func BoundPrograms(proto core.Protocol, bank *object.Bank, inputs []int64, procs []*Proc) []Program {
	if len(procs) != len(inputs) {
		panic(fmt.Sprintf("refsim: %d process handles for %d inputs", len(procs), len(inputs)))
	}
	progs := make([]Program, len(inputs))
	for i, input := range inputs {
		input := input
		env := Bind(bank, procs[i])
		progs[i] = func(*Proc) word.Word {
			return word.FromValue(proto.Decide(env, input))
		}
	}
	return progs
}

// Array is a bank as one simulated process sees it: a core.Env whose CAS
// method takes one scheduled atomic step.
type Array struct {
	bank *object.Bank
	p    *Proc
}

// Bind returns the bank as seen by process p.
func Bind(bank *object.Bank, p *Proc) *Array { return &Array{bank: bank, p: p} }

// CAS executes the CAS operation on object i as one atomic step of the
// process, recording the step in the execution trace. A nonresponsive fault
// stalls the process forever.
func (a *Array) CAS(i int, exp, new word.Word) word.Word {
	var old word.Word
	a.p.Exec(func() {
		var ev trace.Event
		old, ev = a.bank.Object(i).Apply(a.p.ID(), exp, new)
		a.p.Record(ev)
		if ev.Fault == fault.Nonresponsive {
			a.p.Stall()
		}
	})
	return old
}

// Len returns the number of objects in the bank.
func (a *Array) Len() int { return a.bank.Len() }
