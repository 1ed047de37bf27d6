// Command benchmark is the repository benchmark: it runs one named
// workload against the MBA solving stack for a fixed time, checks every
// output with its own expression model, and prints one JSON result line.
//
//	go run . --workload raw-w3 --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (run.sh builds it there). See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// setupRepeats is how many times an offline run sets up; setup_s is
// the median. A served-mix restart takes milliseconds, so it repeats
// restartRepeats times.
const (
	setupRepeats   = 15
	restartRepeats = 45
)

// outcome is what a workload measured.
type outcome struct {
	setups    []float64 // seconds, one per set-up
	latMS     []float64 // per-operation latency
	segments  []segment
	mem0, mem runtime.MemStats
	attempted int
	failed    int
	altOut    float64 // mean alternation of the expressions the pipeline hands on
	layers    map[string]metric
	tr        *tracer
}

// count accounts one operation and reports its failure, if any.
func (o *outcome) count(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(os.Stderr, "benchmark: operation %d failed: %v\n", o.attempted-1, err)
		}
	}
}

var workloads = map[string]func(config, *corpus, *checker) (*outcome, error){
	"raw-w3":       runRaw,
	"simplify-w64": runSimplify,
	"served-mix":   runServed,
}

func main() {
	var cfg config
	var secs float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "raw-w3, simplify-w64 or served-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints per-layer metrics")
	calibrate := flag.Bool("calibrate", false, "print raw_w3_strata.txt for the current program and exit")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = trace == 1
	if err := run(cfg, *calibrate); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config, calibrate bool) error {
	corp, err := loadCorpus(corpusPath)
	if err != nil {
		return err
	}
	if calibrate {
		return calibrateStrata(corp)
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	chk := newChecker(uint64(cfg.seed))
	if err := selfTest(chk, corp); err != nil {
		return err
	}
	out, err := fn(cfg, corp, chk)
	if err != nil {
		return err
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if cfg.trace {
		res.Metrics = layerMetrics(out)
		path, err := out.tr.write(cfg.workload, cfg.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(out.tr.spans), path)
	} else {
		res.Metrics = endToEnd(out)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// segmentFigures returns the median over the run's segments of
// throughput, p50 and p99 latency, and CPU time per operation, and logs
// each segment's figures to standard error.
func segmentFigures(o *outcome) (qps, p50, p99, cpuPerOp float64) {
	var q, l50, l99, c []float64
	for k, s := range o.segments {
		lat := o.latMS[s.from:s.to]
		ops := float64(len(lat))
		q = append(q, ops/s.wall.Seconds())
		l50 = append(l50, percentile(lat, 0.50))
		l99 = append(l99, percentile(lat, 0.99))
		c = append(c, ms(s.cpu)/ops)
		fmt.Fprintf(os.Stderr, "benchmark: segment %d: %d operations, %.4g/s, p50 %.4g ms, p99 %.4g ms, cpu %.4g ms/op\n",
			k, len(lat), q[k], l50[k], l99[k], c[k])
	}
	return median(q), median(l50), median(l99), median(c)
}

func endToEnd(o *outcome) map[string]metric {
	qps, p50, p99, cpuPerOp := segmentFigures(o)
	var rus syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &rus) // cannot fail for RUSAGE_SELF
	m := map[string]metric{
		"throughput_qps":  {qps, "1/s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_p99_ms":  {p99, "ms"},
		"cpu_ms_per_op":   {cpuPerOp, "ms"},
		"setup_s":         {median(o.setups), "s"},
		"peak_rss_mb":     {float64(rus.Maxrss) / 1024, "MiB"},
		"alternation_out": {o.altOut, "count"},
	}
	return m
}

// layerMetrics completes a workload's per-layer metrics with the Go
// runtime's and the tracing run's own end-to-end figures, and fills
// every per-layer metric the workload does not reach with 0.
func layerMetrics(o *outcome) map[string]metric {
	m := map[string]metric{}
	for _, name := range layerNames {
		m[name.name] = metric{0, name.unit}
	}
	for k, v := range o.layers {
		if _, ok := m[k]; !ok {
			panic("unlisted per-layer metric " + k)
		}
		m[k] = v
	}
	m["go.alloc_mb"] = metric{float64(o.mem.TotalAlloc-o.mem0.TotalAlloc) / (1 << 20), "MiB"}
	m["go.gc_cycles"] = metric{float64(o.mem.NumGC - o.mem0.NumGC), "count"}
	m["go.gc_pause_ms"] = metric{float64(o.mem.PauseTotalNs-o.mem0.PauseTotalNs) / 1e6, "ms"}
	qps, p50, _, _ := segmentFigures(o)
	m["trace.throughput_qps"] = metric{qps, "1/s"}
	m["trace.latency_p50_ms"] = metric{p50, "ms"}
	m["trace.spans"] = metric{float64(len(o.tr.spans)), "count"}
	return m
}

// layerNames lists every per-layer metric with its unit, as in
// BENCHMARK.json.
var layerNames = []struct{ name, unit string }{
	{"core.simplify_ms", "ms"}, {"core.simplify_calls", "count"},
	{"core.table_hit_ratio", "ratio"}, {"core.alternation_in", "count"},
	{"smt.calls", "count"}, {"smt.decided_screen", "count"},
	{"smt.decided_rewrite", "count"}, {"smt.decided_sat", "count"},
	{"smt.check_ms", "ms"}, {"smt.screen_ms", "ms"},
	{"smt.rewrite_ms", "ms"}, {"smt.sat_ms", "ms"},
	{"sat.conflicts", "count"}, {"sat.propagations", "count"},
	{"sat.props_per_s", "1/s"}, {"sat.conflicts_per_s", "1/s"},
	{"go.alloc_mb", "MiB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"client.solve_ms", "ms"}, {"client.simplify_ms", "ms"},
	{"client.classify_ms", "ms"}, {"client.batch_ms", "ms"},
	{"service.solve_ms", "ms"}, {"service.simplify_ms", "ms"},
	{"service.classify_ms", "ms"},
	{"service.cache_hits", "count"}, {"service.cache_misses", "count"},
	{"service.rejected", "count"}, {"service.cached_responses", "count"},
	{"cluster.hop_ms", "ms"}, {"cluster.forwarded", "count"}, {"cluster.failovers", "count"},
	{"portfolio.solve_ms", "ms"},
	{"store.hits", "count"}, {"store.misses", "count"}, {"store.puts", "count"},
	{"store.dropped", "count"}, {"store.syncs", "count"},
	{"store.recovered", "count"}, {"store.recover_ms", "ms"},
	{"trace.throughput_qps", "1/s"}, {"trace.latency_p50_ms", "ms"}, {"trace.spans", "count"},
}

// window brackets the timed phase of a workload. Outputs are checked
// as they arrive, so that the benchmark holds no results in memory, and
// the time spent checking is taken out of the window's wall and CPU
// time. The checker's CPU time is read with getrusage: for the caller's
// OS thread offline, where the workload's goroutine is locked to it, and
// for the whole process on served-mix, where the client checks while the
// servers wait for its next request (locking the client to its thread
// would cost two thread hand-offs per request).
//
// The window is cut into segments of whole rounds and at least
// segmentOps operations, and the end-to-end figures are medians over
// segments: on a shared machine a burst of CPU steal then costs the
// segments it falls in, not the whole run.
type window struct {
	start               time.Time
	cpu0                time.Duration
	mem0                runtime.MemStats
	checkWall, checkCPU time.Duration
	checkWho            int    // the getrusage target of check
	marks               []mark // segment boundaries
}

// segmentOps is the least number of operations in a segment: enough for
// ten samples beyond its p99.
const segmentOps = 1000

type mark struct {
	ops       int
	wall, cpu time.Duration
}

type segment struct {
	from, to  int // operations [from, to) of the run
	wall, cpu time.Duration
}

func openWindow(checkWho int) *window {
	w := &window{checkWho: checkWho}
	runtime.ReadMemStats(&w.mem0)
	w.cpu0 = cpuTime(syscall.RUSAGE_SELF)
	w.start = time.Now()
	w.marks = []mark{{}}
	return w
}

// elapsed is the window's wall time so far, less checking.
func (w *window) elapsed() time.Duration { return time.Since(w.start) - w.checkWall }

func (w *window) now(ops int) mark {
	return mark{ops: ops, wall: w.elapsed(), cpu: cpuTime(syscall.RUSAGE_SELF) - w.cpu0 - w.checkCPU}
}

// check runs one output check outside the measurement.
func (w *window) check(f func() error) error {
	t0, c0 := time.Now(), cpuTime(w.checkWho)
	err := f()
	w.checkCPU += cpuTime(w.checkWho) - c0
	w.checkWall += time.Since(t0)
	return err
}

// endRound ends a segment once it holds segmentOps operations.
func (w *window) endRound(ops int) {
	if ops-w.marks[len(w.marks)-1].ops >= segmentOps {
		w.marks = append(w.marks, w.now(ops))
	}
}

// close ends the window after the last round; operations after the last
// full segment join it.
func (w *window) close(o *outcome) {
	end := w.now(o.attempted)
	if len(w.marks) > 1 && end.ops-w.marks[len(w.marks)-1].ops < segmentOps {
		w.marks[len(w.marks)-1] = end
	} else {
		w.marks = append(w.marks, end)
	}
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		if b.ops > a.ops {
			o.segments = append(o.segments, segment{from: a.ops, to: b.ops, wall: b.wall - a.wall, cpu: b.cpu - a.cpu})
		}
	}
	o.mem0 = w.mem0
	runtime.ReadMemStats(&o.mem)
}

func cpuTime(who int) time.Duration {
	var rus syscall.Rusage
	_ = syscall.Getrusage(who, &rus) // cannot fail for RUSAGE_SELF or RUSAGE_THREAD
	return time.Duration(rus.Utime.Nano() + rus.Stime.Nano())
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
