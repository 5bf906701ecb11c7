package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/internal/trace/export"
	"repro/internal/word"
)

// config is one benchmark run of a workload.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// work is the directory runs keep their scratch files and span files in.
	work string
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// verdicts, when positive, replaces the time budget with a fixed number
	// of verdicts, and quick makes the tables passes Quick; both exist for
	// the smoke test.
	verdicts int
	quick    bool
}

func defaultConfig() config {
	return config{seed: 1, seconds: 20, work: filepath.Join(".bench_build", "work"), setups: 9}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is a run's result plus what the result line leaves out: the
// provenance and, for traced runs, where the spans were written.
type report struct {
	result
	verdicts  int
	spansFile string
	spans     []trace.Span
}

// A verdict running past slowFactor times the run's median counts as failed.
const slowFactor = 10

// measure runs one workload: set-up repeated cfg.setups times, the probes
// when traced, then verdicts back to back (a closed loop with one client)
// until the time budget is spent. Traced runs trace every other verdict, so
// the untraced ones in between give the tracing overhead.
func measure(w *workload, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, dir: dir, seed: cfg.seed, inputs: drawInputs(cfg.seed, w.n), sums: map[string]float64{}}
	if cfg.traced {
		b.spans = &spans{rec: trace.NewRecorder(1 << 20)}
	}
	rep := &report{result: result{Correct: true, Metrics: metrics{}}}
	fail := func(err error) {
		rep.Failed++
		rep.Correct = false
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
	}

	setups := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		_, err := b.run(fmt.Sprintf("setup%d", i), true, false)
		setups = append(setups, time.Since(start).Seconds())
		rep.Attempted++
		if err != nil {
			fail(err)
		}
	}
	var pr probes
	if cfg.traced {
		if pr, err = b.probe(); err != nil {
			return nil, err
		}
	}

	var timed, traced, untraced []float64
	var passed []bool
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _ := rusage()
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.verdicts > 0 && i == cfg.verdicts || cfg.verdicts <= 0 && i > 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		vstart := time.Now()
		v, err := b.run(fmt.Sprintf("v%d", i), cfg.quick, cfg.traced && i%2 == 0)
		if v.spans != nil {
			traced = append(traced, time.Since(vstart).Seconds())
		} else {
			untraced = append(untraced, time.Since(vstart).Seconds())
		}
		b.add(v)
		rep.Attempted++
		timed = append(timed, v.timed.Seconds()*1000)
		passed = append(passed, err == nil)
		if err != nil {
			fail(err)
		}
	}
	wall := time.Since(start).Seconds()
	cpu1, rss := rusage()
	runtime.ReadMemStats(&ms1)

	// A verdict that takes many times the median is as good as missing.
	p50 := quantile(timed, 0.5)
	for i, ms := range timed {
		if passed[i] && ms > slowFactor*p50 {
			rep.Failed++
		}
	}
	verdicts := float64(len(timed))
	rep.verdicts = len(timed)

	m := rep.Metrics
	if !cfg.traced {
		m.set("setup_s", "s", quantile(setups, 0.5))
		m.set("verdict_ms_p50", "ms", p50)
		m.set("verdict_ms_p90", "ms", quantile(timed, 0.9))
		m.set("wall_ms_per_verdict", "ms", wall*1000/verdicts)
		m.set("cpu_ms_per_verdict", "ms", (cpu1-cpu0)*1000/verdicts)
		m.set("max_rss_mb", "MiB", rss)
		return rep, nil
	}

	rep.spans = b.spans.rec.Spans()
	if n := b.spans.rec.Dropped(); n > 0 {
		return nil, fmt.Errorf("the span recorder dropped %d spans", n)
	}
	rep.spansFile = filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.perfetto.json", w.name, cfg.seed))
	if err := export.WritePerfetto(rep.spansFile, &export.Execution{Spans: rep.spans}); err != nil {
		return nil, err
	}
	b.layerMetrics(m, verdicts, sum(timed))
	pr.set(m)
	m.set("go.alloc_kb_per_verdict", "KiB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/verdicts)
	m.set("go.allocs_per_execution", "count", ratio(float64(ms1.Mallocs-ms0.Mallocs), b.executions()))
	m.set("go.gc_per_verdict", "count", float64(ms1.NumGC-ms0.NumGC)/verdicts)
	m.set("bench.trace_overhead_frac", "ratio", ratio(quantile(traced, 0.5), quantile(untraced, 0.5))-1)
	selfFracs(m, rep.spans)
	return rep, nil
}

// bench is the state of one run shared by its verdicts.
type bench struct {
	w      *workload
	dir    string
	seed   int64
	inputs []int64
	spans  *spans
	// sums accumulates every registry counter and gauge of the measured
	// verdicts, and each histogram's sum and count.
	sums       map[string]float64
	traceFiles int64
	traceBytes int64
}

// run runs one verdict in a fresh scratch directory. The directory stays
// until the run ends: on a disk mounted with online discard, deleting a
// verdict's checkpoints slows the fsyncs of the verdicts after it.
func (b *bench) run(name string, quick, traced bool) (*verdict, error) {
	v := &verdict{inputs: b.inputs, seed: b.seed, quick: quick, dir: filepath.Join(b.dir, name)}
	var root span
	if traced {
		v.spans = b.spans
		root = b.spans.begin("verdict", 0)
		v.root = root.id
	}
	err := os.Mkdir(v.dir, 0o755)
	if err == nil {
		err = b.w.verdict(b.w, v)
	}
	root.end()
	return v, err
}

// add folds a measured verdict into the layer sums.
func (b *bench) add(v *verdict) {
	for _, reg := range v.regs {
		s := reg.Snapshot()
		for name, c := range s.Counters {
			b.sums[name] += float64(c)
		}
		for name, g := range s.Gauges {
			b.sums[name] += float64(g)
		}
		for name, h := range s.Histograms {
			b.sums[name+".sum"] += h.Sum
			b.sums[name+".count"] += float64(h.Count)
		}
	}
	b.traceFiles += v.traceFiles
	b.traceBytes += v.traceBytes
}

// executions is the number of executions the measured verdicts replayed;
// a resumed run's restored executions were replayed before the interrupt.
func (b *bench) executions() float64 {
	return b.sums["explore.executions"] - b.sums["explore.executions.restored"]
}

// layerMetrics derives the per-layer counts and ratios from the registry
// sums of the measured verdicts, whose timed calls took timedMS in total.
func (b *bench) layerMetrics(m metrics, verdicts, timedMS float64) {
	s := b.sums
	per := func(name string) float64 { return s[name] / verdicts }
	execs := b.executions()
	m.set("explore.executions_per_verdict", "count", execs/verdicts)
	m.set("explore.us_per_execution", "us", ratio(timedMS*1000, execs))
	m.set("explore.violations_per_verdict", "count", per("explore.violations"))

	var idleNS float64
	for w := 0; w < runtime.NumCPU(); w++ {
		idleNS += s[fmt.Sprintf("explore.worker.%d.idle_ns", w)]
	}
	m.set("explore.frontier.steals_per_verdict", "count", per("explore.frontier.steals"))
	m.set("explore.frontier.donations_per_verdict", "count", per("explore.frontier.donations"))
	m.set("explore.frontier.idle_frac", "ratio", ratio(idleNS/1e6, float64(runtime.NumCPU())*timedMS))

	m.set("dedup.hit_rate", "ratio", ratio(s["dedup.hits"], s["dedup.leaf_lookups"]))
	m.set("dedup.lookups_per_verdict", "count", per("dedup.lookups"))
	m.set("dedup.states_per_verdict", "count", per("dedup.states"))
	m.set("explore.dedup.prunes_per_verdict", "count", per("explore.dedup.prunes"))

	reduce := s["explore.reduce.prunes"]
	m.set("explore.reduce.prunes_per_verdict", "count", reduce/verdicts)
	m.set("explore.reduce.prune_frac", "ratio", ratio(reduce, reduce+s["explore.dedup.prunes"]+execs))

	m.set("store.saves_per_verdict", "count", per("store.checkpoint.saves"))
	m.set("store.kb_per_save", "KiB", ratio(s["store.checkpoint.bytes"]/1024, s["store.checkpoint.saves"]))
	m.set("store.checkpoint_frac", "ratio", ratio(s["explore.checkpoint.save_ms.sum"], timedMS))
	m.set("store.write_frac", "ratio", ratio(s["store.checkpoint.write_ms.sum"], timedMS))
	m.set("explore.executions.restored_per_verdict", "count", per("explore.executions.restored"))

	m.set("ledger.claims_per_verdict", "count", per("ledger.claims"))
	m.set("ledger.publishes_per_verdict", "count", per("ledger.publishes"))

	m.set("trace.files_per_verdict", "count", float64(b.traceFiles)/verdicts)
	m.set("trace.kb_per_verdict", "KiB", float64(b.traceBytes)/1024/verdicts)
}

// layerSpans names the spans whose self time is reported as a share of the
// traced verdicts' time; "verdict" is the benchmark's own code between calls.
var layerSpans = []string{
	"verdict", "explore.check", "explore.resume", "store.open", "trace.explain",
	"harness.E1", "harness.E2", "harness.E3", "harness.E4", "harness.E5",
	"harness.E6", "harness.E7", "harness.E8", "harness.E9", "harness.E10",
}

func selfFracs(m metrics, ss []trace.Span) {
	self := selfTimes(ss)
	var total float64
	by := map[string]float64{}
	for i, s := range ss {
		if s.Name == "verdict" {
			total += float64(s.Dur)
		}
		by[s.Name] += float64(self[i])
	}
	for _, name := range layerSpans {
		m.set(name+".self_frac", "ratio", ratio(by[name], total))
	}
}

// spans records the benchmark's own spans around its calls into each layer:
// one root span per traced verdict or probe, each span carrying its id and
// its parent's id.
type spans struct {
	rec  *trace.Recorder
	next int
}

type span struct {
	s      *spans
	id     int
	parent int
	name   string
	start  time.Time
}

// begin starts a span; parent 0 makes it a root. Nil-safe, so untraced
// code paths call through unconditionally.
func (s *spans) begin(name string, parent int) span {
	if s == nil {
		return span{}
	}
	s.next++
	return span{s: s, id: s.next, parent: parent, name: name, start: s.rec.Begin()}
}

func (sp span) end() {
	if sp.s != nil {
		sp.s.rec.End(sp.name, "bench", 0, 0, sp.start, map[string]any{"id": sp.id, "parent": sp.parent})
	}
}

func spanIDs(s trace.Span) (id, parent int) {
	id, _ = s.Args["id"].(int)
	parent, _ = s.Args["parent"].(int)
	return id, parent
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(ss []trace.Span) []int64 {
	children := map[int][]trace.Span{}
	for _, s := range ss {
		if _, parent := spanIDs(s); parent != 0 {
			children[parent] = append(children[parent], s)
		}
	}
	self := make([]int64, len(ss))
	for i, s := range ss {
		id, _ := spanIDs(s)
		kids := children[id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		at, hi := s.Start, s.Start+s.Dur
		var covered int64
		for _, k := range kids {
			from, to := max(k.Start, at), min(k.Start+k.Dur, hi)
			if to > from {
				covered += to - from
				at = to
			}
		}
		self[i] = s.Dur - covered
	}
	return self
}

// drawInputs draws n distinct process inputs from the seed.
func drawInputs(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]int64, 0, n)
	for len(in) < n {
		x := rng.Int63n(word.MaxValue + 1)
		if !slices.Contains(in, x) {
			in = append(in, x)
		}
	}
	return in
}

// quantile interpolates linearly between order statistics; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rusage returns the process's user plus system CPU time in seconds and its
// peak resident set in MiB (Linux reports KiB).
func rusage() (cpuS, maxRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), float64(ru.Maxrss) / 1024
}
