package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer is the benchmark's span recorder. Spans are recorded around the
// calls the benchmark makes into each layer's public functions, kept in
// memory, and written out when the run ends. A nil *tracer records
// nothing, so untraced runs share the call sites at no cost.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu        sync.Mutex
	measuring bool
	spans     []span
	samples   map[string][]float64 // per-call values (medians reported)
	counts    map[string]float64   // totals (reported per pass)
	passes    int
}

// span is one timed call. Spans of one request share Req; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Req    uint64  `json:"req"`
	Name   string  `json:"name"`
	Key    string  `json:"key,omitempty"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	N      float64 `json:"n,omitempty"`
}

// openSpan is a span that has started but not ended.
type openSpan struct {
	tr *tracer
	s  span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// startMeasure discards anything recorded during set-up and warm-up.
func (t *tracer) startMeasure() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.measuring = true
	t.spans = nil
	t.samples = map[string][]float64{}
	t.counts = map[string]float64{}
	t.passes = 0
}

func (t *tracer) endPass() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.passes++
	t.mu.Unlock()
}

// newReq returns a fresh request id.
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// begin opens a span. parent is the id of the causing span (0: root).
func (t *tracer) begin(req, parent uint64, name, key string) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{tr: t, s: span{
		ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Key: key,
		Start: int64(time.Since(t.t0)),
	}}
}

// id returns the span's id (0 for a nil span).
func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() { o.endN(0) }

// endN closes the span, attaching a count (rounds, dirty items, bytes).
func (o *openSpan) endN(n float64) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.tr.t0))
	o.s.N = n
	o.tr.mu.Lock()
	if o.tr.measuring {
		o.tr.spans = append(o.tr.spans, o.s)
	}
	o.tr.mu.Unlock()
}

// sample records one per-call value of a per-layer metric.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.measuring {
		t.samples[name] = append(t.samples[name], v)
	}
	t.mu.Unlock()
}

// count adds to a per-layer counter, reported per pass.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.measuring {
		t.counts[name] += v
	}
	t.mu.Unlock()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of it that its child spans cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerMetric is one per-layer metric and how the traced run derives it.
type layerMetric struct {
	name string
	unit string
	// Exactly one source: the median self time of spans with this
	// name/key, the median attached count of such spans, a sample
	// series, or a counter per pass.
	span, key string
	spanN     bool
	sample    string
	counter   string
}

var (
	domainNames = []string{"stock", "flight"}
	methodNames = []string{"Vote", "Hub", "AvgLog", "Invest", "PooledInvest", "Cosine",
		"2-Estimates", "3-Estimates", "TruthFinder", "AccuPr", "PopAccu", "AccuSim",
		"AccuFormat", "AccuSimAttr", "AccuFormatAttr", "AccuCopy"}
)

// layerMetrics lists every per-layer metric, in BENCHMARK.json order.
func layerMetricSpecs() []layerMetric {
	var out []layerMetric
	for _, d := range domainNames {
		out = append(out, layerMetric{name: "fusion.build_ms." + d, unit: "ms", span: "fusion.build", key: d})
	}
	for _, d := range domainNames {
		for _, m := range methodNames {
			out = append(out, layerMetric{name: "fusion.run_ms." + d + "." + m, unit: "ms", span: "fusion.run", key: d + "." + m})
		}
	}
	for _, d := range domainNames {
		for _, m := range methodNames {
			out = append(out, layerMetric{name: "fusion.rounds." + d + "." + m, unit: "count", span: "fusion.run", key: d + "." + m, spanN: true})
		}
	}
	out = append(out,
		layerMetric{name: "fusion.update_ms", unit: "ms", span: "fusion.update"},
		layerMetric{name: "fusion.advance_ms", unit: "ms", span: "fusion.advance"},
		layerMetric{name: "fusion.answers_ms", unit: "ms", span: "fusion.answers"},
		layerMetric{name: "fusion.dirty_items", unit: "count", span: "fusion.update", spanN: true},
		layerMetric{name: "fusion.plan.full", unit: "count", counter: "fusion.plan.full"},
		layerMetric{name: "fusion.plan.warm", unit: "count", counter: "fusion.plan.warm"},
		layerMetric{name: "fusion.plan.local", unit: "count", counter: "fusion.plan.local"},
	)
	for _, d := range domainNames {
		out = append(out, layerMetric{name: "copydetect.detect_ms." + d, unit: "ms", span: "copydetect.detect", key: d})
	}
	out = append(out,
		layerMetric{name: "model.diff_ms", unit: "ms", span: "model.diff"},
		layerMetric{name: "model.split_ms", unit: "ms", span: "model.split"},
		layerMetric{name: "model.apply_ms", unit: "ms", span: "model.apply"},
		layerMetric{name: "model.delta_ops", unit: "count", sample: "model.delta_ops"},
		layerMetric{name: "store.save_ms", unit: "ms", span: "store.save"},
		layerMetric{name: "store.run_mb", unit: "MB", span: "store.save", spanN: true},
		layerMetric{name: "serve.refresh_ms", unit: "ms", span: "serve.refresh"},
		layerMetric{name: "serve.swap_us", unit: "us", span: "serve.swap"},
		layerMetric{name: "serve.ingest_ms", unit: "ms", span: "serve.ingest"},
		layerMetric{name: "serve.enqueue_us", unit: "us", span: "serve.enqueue"},
		layerMetric{name: "serve.flushes", unit: "count", counter: "serve.flushes"},
		layerMetric{name: "serve.read_handler_us", unit: "us", span: "serve.read_handler"},
		layerMetric{name: "serve.router_read_us", unit: "us", span: "serve.router_read"},
		layerMetric{name: "serve.skew_retries", unit: "count", counter: "serve.skew_retries"},
		layerMetric{name: "serve.fan_failures", unit: "count", counter: "serve.fan_failures"},
		layerMetric{name: "serve.read_503", unit: "count", counter: "serve.read_503"},
		layerMetric{name: "dist.apply_ms", unit: "ms", span: "dist.apply"},
		layerMetric{name: "dist.run_ms", unit: "ms", sample: "dist.run_ms"},
		layerMetric{name: "dist.rounds", unit: "count", sample: "dist.rounds"},
		layerMetric{name: "dist.broadcast_ms", unit: "ms", sample: "dist.broadcast_ms"},
		layerMetric{name: "dist.gather_ms", unit: "ms", sample: "dist.gather_ms"},
	)
	return out
}

// unitScale converts nanoseconds to a metric's time unit.
func unitScale(unit string) float64 {
	switch unit {
	case "us":
		return 1e3
	case "ms":
		return 1e6
	}
	return 1
}

// layerMetrics computes every per-layer metric from the recorded spans.
// A layer the workload does not reach reports 0.
func (t *tracer) layerMetrics() map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	type group struct{ self, n []float64 }
	groups := map[string]*group{}
	for _, s := range t.spans {
		k := s.Name + "|" + s.Key
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.self = append(g.self, float64(self[s.ID]))
		g.n = append(g.n, s.N)
	}
	passes := float64(max(t.passes, 1))
	out := map[string]metric{}
	for _, lm := range layerMetricSpecs() {
		var v float64
		switch {
		case lm.counter != "":
			v = t.counts[lm.counter] / passes
		case lm.sample != "":
			v = median(t.samples[lm.sample])
		case lm.spanN:
			if g := groups[lm.span+"|"+lm.key]; g != nil {
				v = median(g.n)
			}
		default:
			if g := groups[lm.span+"|"+lm.key]; g != nil {
				v = median(g.self) / unitScale(lm.unit)
			}
		}
		out[lm.name] = metric{Value: v, Unit: lm.unit}
	}
	return out
}

// report prints the traced breakdown: per span name, the calls, the
// median duration and the median self time; then, per kind of root span
// (a request), its median duration next to the sum of its stages'
// median self times.
func (t *tracer) report(workload string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	label := func(s *span) string {
		if s.Key != "" {
			return s.Name + "[" + s.Key + "]"
		}
		return s.Name
	}
	type agg struct{ dur, self []float64 }
	aggs := map[string]*agg{}
	var names []string
	byID := make(map[uint64]*span, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		byID[s.ID] = s
		k := label(s)
		a := aggs[k]
		if a == nil {
			a = &agg{}
			aggs[k] = a
			names = append(names, k)
		}
		a.dur = append(a.dur, float64(s.End-s.Start)/1e6)
		a.self = append(a.self, float64(self[s.ID])/1e6)
	}
	sort.Strings(names)
	logf("%s traced breakdown (%d spans, %d passes): name calls median_ms median_self_ms", workload, len(t.spans), t.passes)
	for _, k := range names {
		a := aggs[k]
		logf("  %-40s %7d %10.4f %10.4f", k, len(a.dur), median(a.dur), median(a.self))
	}

	// Self time of every span, summed per (root, stage name).
	rootOf := func(s *span) *span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	parents := map[uint64]bool{}
	for i := range t.spans {
		parents[t.spans[i].Parent] = true
	}
	perRoot := map[uint64]map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		r := rootOf(s)
		if r == s && !parents[s.ID] {
			continue // a request of one span has no stages
		}
		if perRoot[r.ID] == nil {
			perRoot[r.ID] = map[string]float64{}
		}
		perRoot[r.ID][label(s)] += float64(self[s.ID]) / 1e6
	}
	type kind struct {
		dur    []float64
		stages map[string][]float64
	}
	kinds := map[string]*kind{}
	for id, stages := range perRoot {
		r := byID[id]
		k := kinds[label(r)]
		if k == nil {
			k = &kind{stages: map[string][]float64{}}
			kinds[label(r)] = k
		}
		k.dur = append(k.dur, float64(r.End-r.Start)/1e6)
		for name, v := range stages {
			k.stages[name] = append(k.stages[name], v)
		}
	}
	var kindNames []string
	for name := range kinds {
		kindNames = append(kindNames, name)
	}
	sort.Strings(kindNames)
	for _, name := range kindNames {
		k := kinds[name]
		sum := 0.0
		var parts []string
		for stage, vs := range k.stages {
			m := median(vs)
			sum += m
			parts = append(parts, fmt.Sprintf("%s %.3f", stage, m))
		}
		sort.Strings(parts)
		logf("  %s: median %.3f ms over %d, stage medians sum to %.3f ms (%s)",
			name, median(k.dur), len(k.dur), sum, strings.Join(parts, ", "))
	}
}

// write saves the spans, samples and counters as JSON under out/traces.
func (t *tracer) write(out, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := filepath.Join(out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "passes": t.passes,
		"spans": t.spans, "samples": t.samples, "counts": t.counts,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	logf("%s: trace written to %s", workload, path)
	return nil
}
