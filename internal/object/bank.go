package object

import (
	"repro/internal/fault"
	"repro/internal/word"
)

// Bank is a set of CAS objects shared by all processes of one execution.
type Bank struct {
	objs []*CAS
	// ops counts CAS invocations. Plain int is race-free here: a bank
	// belongs to one execution, and its runner grants one step at a time.
	ops int64
}

// NewBank creates n CAS objects (ids 0..n-1) sharing one budget and policy.
func NewBank(n int, budget *fault.Budget, policy fault.Policy) *Bank {
	b := &Bank{objs: make([]*CAS, n)}
	for i := range b.objs {
		b.objs[i] = NewCAS(i, budget, policy)
		b.objs[i].ops = &b.ops
	}
	return b
}

// Object returns the i-th CAS object.
func (b *Bank) Object(i int) *CAS { return b.objs[i] }

// Len returns the number of objects.
func (b *Bank) Len() int { return len(b.objs) }

// AppendContents appends every register's content to dst and returns the
// extended slice. It is monitor-side: protocols cannot read a CAS object.
func (b *Bank) AppendContents(dst []word.Word) []word.Word {
	for _, o := range b.objs {
		dst = append(dst, o.content)
	}
	return dst
}

// RestoreContents sets every register to the content AppendContents saved,
// rewinding a replay to an earlier step. Fault budgets are not touched.
func (b *Bank) RestoreContents(src []word.Word) {
	for i, o := range b.objs {
		o.content = src[i]
	}
}

// Reset restores every object to ⊥.
func (b *Bank) Reset() {
	for _, o := range b.objs {
		o.Reset()
	}
}

// Ops returns the number of CAS invocations executed so far.
func (b *Bank) Ops() int64 { return b.ops }
