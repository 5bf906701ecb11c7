package dedup

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/word"
)

func TestVisitSemantics(t *testing.T) {
	s := NewSet(0)
	fp := Fingerprint{Hi: 1, Lo: 2}

	if d := s.Visit(fp, []int{1, 0}); d != Stored {
		t.Fatalf("first visit = %v, want Stored", d)
	}
	if d := s.Visit(fp, []int{1, 0}); d != Revisit {
		t.Fatalf("same-path visit = %v, want Revisit", d)
	}
	if d := s.Visit(fp, []int{1, 1}); d != Prune {
		t.Fatalf("larger-path visit = %v, want Prune", d)
	}
	if d := s.Visit(fp, []int{0, 7}); d != Improved {
		t.Fatalf("smaller-path visit = %v, want Improved", d)
	}
	// After the improvement, the old representative now prunes.
	if d := s.Visit(fp, []int{1, 0}); d != Prune {
		t.Fatalf("old representative = %v, want Prune", d)
	}

	st := s.Stats()
	if st.States != 1 || st.Hits != 2 || st.Improved != 1 || st.Lookups != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVisitPrefixOrdering(t *testing.T) {
	s := NewSet(0)
	fp := Fingerprint{Hi: 3, Lo: 4}
	if d := s.Visit(fp, []int{2}); d != Stored {
		t.Fatalf("got %v", d)
	}
	// A stored proper prefix orders before every extension.
	if d := s.Visit(fp, []int{2, 0}); d != Prune {
		t.Fatalf("extension of stored prefix = %v, want Prune", d)
	}
	// A shorter candidate that is a prefix of the stored path improves it.
	if d := s.Visit(Fingerprint{Hi: 5, Lo: 6}, []int{2, 0}); d != Stored {
		t.Fatalf("got %v", d)
	}
	if d := s.Visit(Fingerprint{Hi: 5, Lo: 6}, []int{2}); d != Improved {
		t.Fatalf("prefix of stored path = %v, want Improved", d)
	}
}

func TestSetLimit(t *testing.T) {
	s := NewSet(2)
	s.Visit(Fingerprint{Lo: 0}, []int{0})
	s.Visit(Fingerprint{Lo: 1}, []int{1})
	// Full: the third state is not recorded...
	if d := s.Visit(Fingerprint{Lo: 2}, []int{2}); d != Stored {
		t.Fatalf("got %v", d)
	}
	if d := s.Visit(Fingerprint{Lo: 2}, []int{3}); d != Stored {
		t.Fatalf("state beyond the limit must stay unrecorded, got %v", d)
	}
	// ...but recorded states keep pruning.
	if d := s.Visit(Fingerprint{Lo: 1}, []int{5}); d != Prune {
		t.Fatalf("got %v", d)
	}
	if st := s.Stats(); st.States != 2 {
		t.Fatalf("states = %d, want 2", st.States)
	}
}

// TestConcurrentVisits races 8 goroutines over 2,000 states in 37 shards,
// whose tables double several times meanwhile. Goroutine w offers state i
// the path [w^(i%8), i%256], so each state's least path comes from a
// different goroutine and larger paths often arrive first. Afterwards every
// state must hold the least path offered: Revisit for it, Prune for the
// others.
func TestConcurrentVisits(t *testing.T) {
	const workers, states = 8, 2000
	fp := func(i int) Fingerprint { return Fingerprint{Hi: uint64(i), Lo: uint64(i % 37)} }
	s := NewSet(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < states; i++ {
				s.Visit(fp(i), []int{w ^ i%workers, i % 256})
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.States != states {
		t.Fatalf("states = %d, want %d", st.States, states)
	}
	if st.Lookups != workers*states {
		t.Fatalf("lookups = %d, want %d", st.Lookups, workers*states)
	}
	for i := 0; i < states; i++ {
		if d := s.Visit(fp(i), []int{0, i % 256}); d != Revisit {
			t.Fatalf("state %d, least path: %v, want Revisit", i, d)
		}
		for c := 1; c < workers; c++ {
			if d := s.Visit(fp(i), []int{c, i % 256}); d != Prune {
				t.Fatalf("state %d, path [%d %d]: %v, want Prune", i, c, i%256, d)
			}
		}
	}
}

// visit is one probe of a test stream.
type visit struct {
	fp   Fingerprint
	path []int
}

// benchStream returns visits shaped like prove-pruned's probes (figure2
// f=1 n=5, dedup and reduction, one worker: 74,373 states stored in 79,717
// probes): about 75,000 distinct states, each reached by a path of 8 to 24
// choices over 5, and about 5,000 more probes of earlier states under new
// paths.
func benchStream(rng *rand.Rand) []visit {
	randPath := func() []int {
		p := make([]int, 8+rng.Intn(17))
		for i := range p {
			p[i] = rng.Intn(5)
		}
		return p
	}
	stream := make([]visit, 0, 80_000)
	for len(stream) < cap(stream) {
		if len(stream) > 0 && rng.Intn(16) == 0 {
			stream = append(stream, visit{stream[rng.Intn(len(stream))].fp, randPath()})
			continue
		}
		stream = append(stream, visit{Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}, randPath()})
	}
	return stream
}

// BenchmarkSetVisit fills a fresh set with benchStream's visits, split
// round-robin over 1 and 2 goroutines, and reports the time per visit.
func BenchmarkSetVisit(b *testing.B) {
	stream := benchStream(rand.New(rand.NewSource(1)))
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				s := NewSet(0)
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < len(stream); i += g {
							s.Visit(stream[i].fp, stream[i].path)
						}
					}(w)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/visit")
		})
	}
}

func casEvent(proc, obj int, old, post word.Word) trace.Event {
	return trace.Event{Kind: trace.EventCAS, Proc: proc, Object: obj, Old: old, Post: post}
}

func TestTrackerDistinguishesStates(t *testing.T) {
	tr := NewTracker(2, []int64{10, 11}, false)
	base := tr.Fingerprint()

	tr.Observe(casEvent(0, 0, word.Bottom, word.FromValue(10)))
	after := tr.Fingerprint()
	if after == base {
		t.Fatal("a CAS step must change the fingerprint")
	}

	tr.Reset()
	if got := tr.Fingerprint(); got != base {
		t.Fatalf("reset fingerprint = %v, want %v", got, base)
	}
}

func TestTrackerConvergingInterleavings(t *testing.T) {
	// Two processes each perform an operation whose responses are
	// order-independent: both orders must converge to the same state.
	a := NewTracker(2, []int64{10, 11}, false)
	a.Observe(casEvent(0, 0, word.Bottom, word.FromValue(10)))
	a.Observe(casEvent(1, 1, word.Bottom, word.FromValue(11)))

	b := NewTracker(2, []int64{10, 11}, false)
	b.Observe(casEvent(1, 1, word.Bottom, word.FromValue(11)))
	b.Observe(casEvent(0, 0, word.Bottom, word.FromValue(10)))

	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("commuting steps must reach the same fingerprint")
	}
}

func TestTrackerOrderSensitive(t *testing.T) {
	// Same multiset of events but different responses observed: distinct.
	a := NewTracker(1, []int64{10, 11}, false)
	a.Observe(casEvent(0, 0, word.Bottom, word.FromValue(10)))
	a.Observe(casEvent(1, 0, word.FromValue(10), word.FromValue(10)))

	b := NewTracker(1, []int64{10, 11}, false)
	b.Observe(casEvent(1, 0, word.Bottom, word.FromValue(11)))
	b.Observe(casEvent(0, 0, word.FromValue(11), word.FromValue(11)))

	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different observed responses must yield different fingerprints")
	}
}

func TestTrackerSymmetricRenaming(t *testing.T) {
	// Processes 0 and 1 have swapped inputs and swapped histories: the
	// symmetric tracker identifies the states, the plain one does not.
	history := func(sym bool, swap bool) Fingerprint {
		inputs := []int64{10, 11}
		if swap {
			inputs = []int64{11, 10}
		}
		tr := NewTracker(1, inputs, sym)
		p0, p1 := 0, 1
		if swap {
			p0, p1 = 1, 0
		}
		tr.Observe(casEvent(p0, 0, word.Bottom, word.FromValue(10)))
		tr.Observe(casEvent(p1, 0, word.FromValue(10), word.FromValue(10)))
		return tr.Fingerprint()
	}
	if history(true, false) != history(true, true) {
		t.Fatal("symmetric tracker must identify renamed states")
	}
	if history(false, false) == history(false, true) {
		t.Fatal("plain tracker must distinguish renamed states")
	}
}

func TestTrackerBudgetCharges(t *testing.T) {
	// Identical registers and histories except one execution charged a
	// fault: the remaining budgets differ, so the states must differ.
	a := NewTracker(1, []int64{10}, false)
	a.Observe(casEvent(0, 0, word.Bottom, word.FromValue(10)))

	b := NewTracker(1, []int64{10}, false)
	ev := casEvent(0, 0, word.Bottom, word.FromValue(10))
	ev.Fault = fault.Overriding
	b.Observe(ev)

	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("differing budget consumption must yield different fingerprints")
	}
}
