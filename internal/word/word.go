// Package word defines the 64-bit register word stored in CAS objects.
//
// The paper's protocols operate on CAS registers that hold either the
// distinguished initial value ⊥ (Bottom), a plain input value, or — for the
// staged protocol of Figure 3 — a pair ⟨value, stage⟩. To stay faithful to a
// hardware CAS register (and to share one representation between the
// deterministic simulator and the sync/atomic backend) all three are packed
// into a single uint64:
//
//	bit 63      : presence flag (0 only for Bottom)
//	bits 32..62 : value   (31 bits, 0 .. MaxValue)
//	bits  0..31 : stage   (32 bits, 0 .. MaxStage)
//
// Bottom is the all-zero word, so zero-initialized registers start at ⊥
// exactly as the paper assumes.
package word

import (
	"fmt"
	"math"
	"strconv"
)

// Word is the content of a CAS register: ⊥, a value, or a ⟨value, stage⟩ pair.
type Word uint64

// Bottom is the distinguished initial register value ⊥. It differs from every
// packed value, as the paper requires of process inputs.
const Bottom Word = 0

const (
	presentBit = uint64(1) << 63

	// MaxValue is the largest input value representable in a Word.
	MaxValue = (1 << 31) - 1

	// MaxStage is the largest stage number representable in a Word.
	MaxStage = math.MaxUint32
)

// Pack builds the pair ⟨value, stage⟩ used by the staged protocol (Figure 3).
// It panics if value or stage is out of range; protocol inputs are validated
// at the API boundary, so a panic here indicates a library bug.
func Pack(value int64, stage int64) Word {
	if value < 0 || value > MaxValue {
		panic(fmt.Sprintf("word: value %d out of range [0, %d]", value, MaxValue))
	}
	if stage < 0 || stage > MaxStage {
		panic(fmt.Sprintf("word: stage %d out of range [0, %d]", stage, MaxStage))
	}
	return Word(presentBit | uint64(value)<<32 | uint64(stage))
}

// FromValue builds a plain value word (stage 0). Plain-value protocols
// (Figures 1 and 2) never inspect the stage field.
func FromValue(value int64) Word { return Pack(value, 0) }

// IsBottom reports whether w is the initial value ⊥.
func (w Word) IsBottom() bool { return uint64(w)&presentBit == 0 }

// Value returns the packed value. For ⊥ it returns -1, which is outside the
// valid input range and therefore never collides with a real value.
func (w Word) Value() int64 {
	if w.IsBottom() {
		return -1
	}
	return int64(uint64(w) >> 32 & MaxValue)
}

// Stage returns the packed stage. For ⊥ it returns -1: the paper's staged
// protocol compares stages with ≥, and treating ⊥ as "stage −1" makes every
// real stage later than the initial content, matching the protocol's intent.
func (w Word) Stage() int64 {
	if w.IsBottom() {
		return -1
	}
	return int64(uint64(w) & MaxStage)
}

// WithStage returns w with its stage field replaced (paper line 17,
// "exp.stage ← s"). Replacing the stage of ⊥ has no meaning in the paper's
// pseudocode, so callers must pack a full pair in that case; this method
// panics on ⊥ to surface such misuse.
func (w Word) WithStage(stage int64) Word {
	if w.IsBottom() {
		panic("word: WithStage on Bottom")
	}
	return Pack(w.Value(), stage)
}

// String renders ⊥, plain values, and pairs readably for traces.
func (w Word) String() string {
	var buf [32]byte // the longest form, ⟨MaxValue,MaxStage⟩, is 27 bytes
	return string(w.AppendTo(buf[:0]))
}

// AppendTo appends the String form of w to b and returns the extended
// buffer, so trace writers render words without a string per word.
func (w Word) AppendTo(b []byte) []byte {
	if w.IsBottom() {
		return append(b, "⊥"...)
	}
	if w.Stage() == 0 {
		return strconv.AppendInt(b, w.Value(), 10)
	}
	b = append(b, "⟨"...)
	b = strconv.AppendInt(b, w.Value(), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, w.Stage(), 10)
	return append(b, "⟩"...)
}
