package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps ../BENCHMARK.json and the metrics the
// program prints in step: same workloads, same metric names, units and
// directions, and bounds within the allowed range.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	want := map[string]metricSpec{}
	for _, s := range endToEnd {
		want[s.Name] = s
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != want[m.Name] {
			t.Errorf("end-to-end %+v, code %+v", got, want[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	want = map[string]metricSpec{}
	for _, s := range perLayer {
		want[s.Name] = s
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for _, m := range spec.PerLayer {
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != want[m.Name] {
			t.Errorf("per-layer %+v, code %+v", got, want[m.Name])
		}
	}
}
