// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four paper-scale workloads (or all of them, in one process), checks
// the outputs against computations of its own, and prints the result as
// one JSON line on standard output:
//
//	bash perfbench/run.sh --workload stock-days --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the workload
// with the span recorder on and reports the per-layer metrics instead.
// README.md lists the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark input set and the system it drives.
type workload struct {
	name  string
	setup func(env *env) (instance, error)
}

// env is what a workload's set-up receives.
type env struct {
	seed int64
	out  string  // directory for run files (.bench_build)
	tr   *tracer // nil in untraced runs
}

// instance is one set-up workload.
type instance interface {
	// warm runs a small fixed amount of work that is not measured.
	warm() error
	// pass runs the workload's fixed unit of work once.
	pass(rec *recorder) error
	// check runs the correctness oracles after the measured passes.
	check() error
	// close stops everything the set-up started and waits for it.
	close()
}

var workloads = []workload{
	{name: "paper-fuse", setup: setupPaperFuse},
	{name: "stock-days", setup: setupStockDays},
	{name: "serve-live", setup: func(e *env) (instance, error) { return setupServing(e, false) }},
	{name: "routed", setup: func(e *env) (instance, error) { return setupServing(e, true) }},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-fuse, stock-days, serve-live, routed or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measure whole passes until this many seconds have elapsed")
		trace   = flag.Int("trace", 0, "1 runs with the span recorder on and reports per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for run files and traces")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive, got %g", *seconds)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fatalf("unknown --workload %q (want paper-fuse, stock-days, serve-live, routed or all)", *name)
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range chosen {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if len(chosen) == 1 {
			total = res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s %s\n", w.name, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w.name+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// runWorkload sets a workload up several times, warms it, runs whole
// passes until the run length has elapsed, and checks the outputs.
func runWorkload(w workload, seed int64, seconds float64, traced bool, out string) (result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	e := &env{seed: seed, out: out, tr: tr}
	var inst instance
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()
	if err := inst.warm(); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	rec := &recorder{}
	heap := startHeapSampler()
	tr.startMeasure()
	start := time.Now()
	var passes []float64
	for len(passes) == 0 || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		if err := inst.pass(rec); err != nil {
			heap.stop()
			return result{}, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		passes = append(passes, time.Since(t0).Seconds())
		tr.endPass()
	}
	peak := heap.stop()

	res := result{Correct: true, Attempted: rec.attempted, Failed: rec.failed}
	if err := inst.check(); err != nil {
		logf("%s: CHECK FAILED: %v", w.name, err)
		res.Correct = false
	}
	if rec.violations > 0 {
		logf("%s: CHECK FAILED: %d reads saw an older version than an earlier ack", w.name, rec.violations)
		res.Correct = false
	}

	logf("%s: seed %d, %d passes, %d operations attempted, %d failed, setups %s s",
		w.name, seed, len(passes), rec.attempted, rec.failed, fmtList(setups))
	e2e := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"pass_s":       {median(passes), "s"},
		"op_ms":        {median(rec.ops), "ms"},
		"write_ms":     {median(rec.writes), "ms"},
		"heap_peak_mb": {peak, "MB"},
	}
	logf("%s: %s; tails: op %s, write %s; reads answered 503 and retried: %d", w.name,
		fmtMetrics(e2e), tail(rec.ops), tail(rec.writes), rec.retries)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = tr.layerMetrics()
	tr.report(w.name)
	if err := tr.write(out, w.name, seed); err != nil {
		return result{}, err
	}
	return res, nil
}

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "pass_s", "op_ms", "write_ms", "heap_peak_mb"}

func fmtMetrics(ms map[string]metric) string {
	parts := make([]string, 0, len(endToEnd))
	for _, k := range endToEnd {
		parts = append(parts, fmt.Sprintf("%s %.4f %s", k, ms[k].Value, ms[k].Unit))
	}
	return strings.Join(parts, ", ")
}

// tail renders the highest of p90, p99 and p99.9 that has at least ten
// samples beyond it, with the sample count; below forty samples a tail
// would rest on too few points and is left out.
func tail(xs []float64) string {
	n := len(xs)
	if n < 40 {
		return fmt.Sprintf("none (%d samples)", n)
	}
	q, label := 0.9, "p90"
	if float64(n)*0.01 >= 10 {
		q, label = 0.99, "p99"
	}
	if float64(n)*0.001 >= 10 {
		q, label = 0.999, "p99.9"
	}
	return fmt.Sprintf("%s %.4f ms (%d samples)", label, quantile(xs, q), n)
}

// heapSampler tracks the largest live heap any garbage collection found
// while the measured passes ran. The live set, unlike the bytes allocated
// between two collections, does not depend on when the collector happens
// to run; over a run's many collections its maximum settles.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// median returns the middle of xs (the mean of the two middles for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q = 0.5 is the median).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
