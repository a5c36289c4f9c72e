package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must declare exactly the metric
// tables the program reports, and only workloads the program runs.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	check := func(kind string, decl []struct{ Name, Unit string }, specs []metricSpec) {
		if len(decl) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", kind, len(decl), len(specs))
			return
		}
		for i, s := range specs {
			if decl[i].Name != s.name || decl[i].Unit != s.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, decl[i].Name, decl[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
