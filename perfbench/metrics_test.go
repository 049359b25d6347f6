package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	units := map[string]string{"setup_s": "s", "pass_s": "s", "op_ms": "ms", "write_ms": "ms", "heap_peak_mb": "MB"}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, name := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != name || got.Unit != units[name] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, got.Name, got.Unit, name, units[name])
		}
	}
	layers := layerMetricSpecs()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(layers))
	}
	for i, lm := range layers {
		if got := spec.PerLayer[i]; got.Name != lm.name || got.Unit != lm.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, got.Name, got.Unit, lm.name, lm.unit)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children's intervals, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Start: 90, End: 120}, // ends after its parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}
