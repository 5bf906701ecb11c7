package dedup

import (
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/word"
)

// Tracker incrementally maintains the canonical state of one replayed
// execution, fed by the simulator's event stream, and renders it as a
// Fingerprint on demand. The canonical state is:
//
//   - the contents of every CAS register (tracked from post-states of CAS
//     events),
//   - one local-state digest per process — a rolling hash over the
//     process's input and the sequence of responses it observed (returned
//     old values, plus its decision). Programs are deterministic and see
//     shared memory only through those responses, so equal digests mean
//     equal local states, including the program counter,
//   - the fault budget consumed per object (remaining budgets determine
//     which faults the adversary may still inject).
//
// Two partial executions with equal canonical states have isomorphic
// continuation subtrees, so the second is redundant.
//
// When symmetric is set, the per-process digests are hashed as a sorted
// multiset instead of a vector, identifying states that differ only by a
// renaming of processes. This is sound for every protocol written against
// core.Env: the environment exposes no process identity, so process
// programs differ only by their input value — which the digest seed
// captures — and the consensus conditions are invariant under renaming.
//
// The fingerprint is maintained incrementally: each register slot and each
// process digest contributes one mixed term to a pair of commutative
// accumulators, and Observe replaces the changed slot's term (subtract old,
// add new) instead of rehashing the whole state. Fingerprint is therefore
// O(1) per probe — the explorer fingerprints before every scheduling
// decision, and the old O(objects + n log n) walk dominated deduplicated
// replays. Addition is commutative, so the symmetric multiset view needs no
// sort: unsalted process terms are order-blind by construction, while
// register terms stay salted by slot index.
type Tracker struct {
	inputs    []int64
	regs      []word.Word
	procs     []uint64
	charges   []uint32
	symmetric bool

	regSalt []uint64 // per-slot salt for register terms
	hi, lo  uint64   // commutative accumulators over all slot terms
}

// NewTracker returns a tracker for executions of n = len(inputs) processes
// over the given number of CAS objects.
func NewTracker(objects int, inputs []int64, symmetric bool) *Tracker {
	t := &Tracker{
		inputs:    append([]int64(nil), inputs...),
		regs:      make([]word.Word, objects),
		procs:     make([]uint64, len(inputs)),
		charges:   make([]uint32, objects),
		symmetric: symmetric,
		regSalt:   make([]uint64, objects),
	}
	for i := range t.regSalt {
		t.regSalt[i] = mix64(fnvSeed + uint64(i)*fnvPrime)
	}
	t.Reset()
	return t
}

// regTerm is object slot i's contribution: the packed (register, charges)
// value mixed with the slot's salt, in two independent streams.
func (t *Tracker) regTerm(i int) (hi, lo uint64) {
	v := uint64(t.regs[i]) ^ uint64(t.charges[i])<<1 ^ t.regSalt[i]
	return mix64(v), mix64(v ^ fnvSeed2)
}

// procTerm is process p's contribution. Symmetric trackers drop the process
// index from the term, turning the accumulated sum into a multiset hash of
// the digests — renaming-invariant without sorting.
func (t *Tracker) procTerm(p int) (hi, lo uint64) {
	d := t.procs[p]
	if !t.symmetric {
		d ^= mix64(fnvSeed2 + uint64(p)*fnvPrime)
	}
	return mix64(d ^ fnvSeed), mix64(d + fnvSeed2)
}

// setProc replaces process p's digest and swaps its accumulator term.
func (t *Tracker) setProc(p int, d uint64) {
	oh, ol := t.procTerm(p)
	t.procs[p] = d
	nh, nl := t.procTerm(p)
	t.hi += nh - oh
	t.lo += nl - ol
}

// setReg replaces object o's register (and optionally bumps its fault
// charge) and swaps its accumulator term.
func (t *Tracker) setReg(o int, v word.Word, charge bool) {
	oh, ol := t.regTerm(o)
	t.regs[o] = v
	if charge {
		t.charges[o]++
	}
	nh, nl := t.regTerm(o)
	t.hi += nh - oh
	t.lo += nl - ol
}

// Reset restores the initial state (fresh replay) and rebuilds the
// accumulators from scratch.
func (t *Tracker) Reset() {
	for i := range t.regs {
		t.regs[i] = word.Bottom
		t.charges[i] = 0
	}
	for i, in := range t.inputs {
		t.procs[i] = mix64(fnvSeed ^ uint64(in))
	}
	t.hi, t.lo = fnvSeed, fnvSeed2
	for i := range t.regs {
		h, l := t.regTerm(i)
		t.hi += h
		t.lo += l
	}
	for p := range t.procs {
		h, l := t.procTerm(p)
		t.hi += h
		t.lo += l
	}
}

// TrackerState is a saved canonical state of a Tracker: the register,
// digest and charge slots and the accumulators. Save and Restore reuse its
// buffers, so a replay loop that keeps its states allocates nothing after
// warm-up.
type TrackerState struct {
	regs    []word.Word
	procs   []uint64
	charges []uint32
	hi, lo  uint64
}

// Save copies the tracker's current state into dst.
func (t *Tracker) Save(dst *TrackerState) {
	dst.regs = append(dst.regs[:0], t.regs...)
	dst.procs = append(dst.procs[:0], t.procs...)
	dst.charges = append(dst.charges[:0], t.charges...)
	dst.hi, dst.lo = t.hi, t.lo
}

// Restore rewinds the tracker to a state Save took from it, as when a
// replay resumes from an earlier step of the same execution.
func (t *Tracker) Restore(src *TrackerState) {
	copy(t.regs, src.regs)
	copy(t.procs, src.procs)
	copy(t.charges, src.charges)
	t.hi, t.lo = src.hi, src.lo
}

// Observe folds one simulator event into the state. It is installed as the
// simulator's Observer, so it runs inside the granted atomic step — no
// synchronization is needed.
func (t *Tracker) Observe(e trace.Event) {
	switch e.Kind {
	case trace.EventCAS:
		t.setReg(e.Object, e.Post, e.Fault != fault.None)
		// The process observes only the returned old value (a silent
		// fault is invisible to it); which operation it issued is a
		// function of its local state, so (object, old) per response
		// pins the continuation.
		d := roll(t.procs[e.Proc], uint64(e.Object)<<1|1)
		t.setProc(e.Proc, roll(d, uint64(e.Old)))
	case trace.EventDecide:
		d := roll(t.procs[e.Proc], 0xD0)
		t.setProc(e.Proc, roll(d, uint64(e.Value)))
	case trace.EventCorrupt:
		t.setReg(e.Object, e.Value, false)
	case trace.EventHalt:
		t.setProc(e.Proc, roll(t.procs[e.Proc], 0xA1))
	}
}

// Fingerprint renders the current canonical state as a 128-bit hash. O(1):
// the accumulators are maintained by Observe; only the finalizer runs here.
func (t *Tracker) Fingerprint() Fingerprint {
	return Fingerprint{Hi: mix64(t.hi), Lo: mix64(t.lo)}
}

// Register returns the tracked content of CAS register o — the value the
// next operation on o will read. The exploration reducer's independence
// relation consults it to decide whether a pending CAS is a pure read.
func (t *Tracker) Register(o int) word.Word { return t.regs[o] }

// ProcDigest returns process p's local-state digest. Equal digests mean
// equal local states (same input, same observed responses), which is what
// lets the reducer canonicalize process-symmetric branch points.
func (t *Tracker) ProcDigest(p int) uint64 { return t.procs[p] }

const (
	fnvSeed  = 0xcbf29ce484222325
	fnvSeed2 = 0x9e3779b97f4a7c15
	fnvPrime = 0x100000001b3
)

// roll is a multiply-xor rolling hash for the per-process digests; mix64 is
// the splitmix64 finalizer for avalanche.
func roll(h, v uint64) uint64 { return (h ^ mix64(v)) * fnvPrime }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
