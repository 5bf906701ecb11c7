package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounterReservation(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(3)
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if !c.CompareAndSwap(4, 5) {
		t.Fatal("CAS 4->5 failed")
	}
	if c.CompareAndSwap(4, 9) {
		t.Fatal("stale CAS succeeded")
	}
	c.Add(-2) // release a reservation
	if got := c.Load(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same counter name returned different metrics")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same gauge name returned different metrics")
	}
	if r.Histogram("h", 1, 2) != r.Histogram("h", 5, 6) {
		t.Error("same histogram name returned different metrics")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two kinds did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

// TestHistogramBucketBoundaries pins down the inclusive-upper-bound ("le")
// convention: a value equal to a bound lands in that bound's bucket, a
// value above every bound lands in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(1, 2, 5)
	cases := []struct {
		v      float64
		bucket int
	}{
		{-1, 0},              // below the first bound
		{0, 0},               //
		{1, 0},               // exactly on a bound: inclusive
		{1.0000001, 1},       // just above a bound
		{2, 1},               //
		{4.9, 2},             //
		{5, 2},               // last finite bound, inclusive
		{5.1, 3},             // overflow
		{math.Inf(1), 3},     // +Inf overflows
		{math.Inf(-1), 0},    // -Inf in the first bucket
		{math.MaxFloat64, 3}, //
	}
	for _, c := range cases {
		before := h.Snapshot().Counts[c.bucket]
		h.Observe(c.v)
		after := h.Snapshot().Counts[c.bucket]
		if after != before+1 {
			t.Errorf("Observe(%v): bucket %d went %d -> %d, want +1", c.v, c.bucket, before, after)
		}
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Errorf("count = %d, want %d", s.Count, len(cases))
	}
	var sum int64
	for _, n := range s.Counts {
		sum += n
	}
	if sum != s.Count {
		t.Errorf("bucket counts sum to %d, total is %d", sum, s.Count)
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(math.NaN())
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("NaN was recorded: %+v", s)
	}
}

func TestHistogramMinMaxSum(t *testing.T) {
	h := NewHistogram(10, 100)
	for _, v := range []float64{3, 7, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Min != 3 || s.Max != 50 || s.Sum != 60 {
		t.Errorf("min/max/sum = %v/%v/%v, want 3/50/60", s.Min, s.Max, s.Sum)
	}
}

func TestHistogramEmptySnapshotMarshals(t *testing.T) {
	// An empty histogram must not leak the +/-Inf min/max seeds into JSON
	// (encoding/json rejects infinities).
	s := NewHistogram(1).Snapshot()
	if s.Min != 0 || s.Max != 0 {
		t.Errorf("empty min/max = %v/%v, want 0/0", s.Min, s.Max)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 2 || q > 6 {
		t.Errorf("p50 = %v, want within [2, 6]", q)
	}
	if q := s.Quantile(0); q != s.Min {
		t.Errorf("p0 = %v, want min %v", q, s.Min)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("p100 = %v, want max %v", q, s.Max)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestRegistrySnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", 1, 10, 100)
	r.Func("f", func() int64 { return c.Load() })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 4000 || s.Gauges["f"] != 4000 {
		t.Errorf("counter = %d, func gauge = %d, want 4000", s.Counters["c"], s.Gauges["f"])
	}
	if s.Histograms["h"].Count != 4000 {
		t.Errorf("histogram count = %d, want 4000", s.Histograms["h"].Count)
	}
}

// TestHistogramBoundEdges pins the bucket convention: bounds are inclusive
// upper edges (Prometheus "le"), values above the last bound and +Inf land
// in the overflow bucket, NaN is dropped entirely.
func TestHistogramBoundEdges(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	h.Observe(0.5)          // below first bound -> bucket 0
	h.Observe(1)            // exactly on a bound is inclusive -> bucket 0
	h.Observe(2)            // -> bucket 1
	h.Observe(4)            // exactly the last bound -> bucket 2, not overflow
	h.Observe(4.0001)       // just above -> overflow
	h.Observe(math.Inf(1))  // +Inf -> overflow
	h.Observe(math.NaN())   // dropped
	h.Observe(math.Inf(-1)) // -Inf -> bucket 0

	s := h.Snapshot()
	wantCounts := []int64{3, 1, 1, 2}
	if !reflect.DeepEqual(s.Counts, wantCounts) {
		t.Errorf("counts = %v, want %v", s.Counts, wantCounts)
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7 (NaN dropped)", s.Count)
	}
	if !math.IsInf(s.Min, -1) || !math.IsInf(s.Max, 1) {
		t.Errorf("extremes = [%v, %v]", s.Min, s.Max)
	}
}
