package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// BENCHMARK.json, at the repository root, must list exactly the
// workloads and metrics, with their units, that this command runs and
// reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(sorted(names), workloadNames()) {
		t.Errorf("workloads %v, code runs %v", names, workloadNames())
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end %v, code reports %v", doc.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer %v, code reports %v", doc.PerLayer, perLayerMetrics)
	}
}

func sorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}
