package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the result
// line is checked against in step with the repository's BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, code declares %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, code declares %v", got, perLayer)
	}
	for _, w := range names(spec.Workloads) {
		if _, ok := workloads[w]; !ok {
			t.Errorf("workload %s has no runner", w)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d runners", len(spec.Workloads), len(workloads))
	}
}
