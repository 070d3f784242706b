package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"gpufaultsim/internal/telemetry"
)

// The per-layer metrics a traced run prints must be exactly the ones
// BENCHMARK.json declares, with the same units.
func TestBenchmarkJSONListsEveryPerLayerMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	printed := map[string]string{
		"runtime.gc_cycles": "count", "runtime.gc_cpu_s": "s", "trace.overhead_frac": "fraction",
	}
	for _, m := range perLayer(appNames()) {
		printed[m.name] = m.unit
	}
	var diff []string
	for name, unit := range printed {
		if declared[name] != unit {
			diff = append(diff, "printed "+name+" ["+unit+"]")
		}
	}
	for name, unit := range declared {
		if printed[name] != unit {
			diff = append(diff, "declared "+name+" ["+unit+"]")
		}
	}
	sort.Strings(diff)
	for _, d := range diff {
		t.Error(d)
	}
}

func TestCoveredUSTakesTheUnionOfChildrenInsideTheParent(t *testing.T) {
	parent := telemetry.SpanRecord{StartUS: 100, DurUS: 100} // [100, 200)
	kids := []telemetry.SpanRecord{
		{StartUS: 90, DurUS: 30},  // [90, 120) clipped to [100, 120)
		{StartUS: 110, DurUS: 20}, // [110, 130) overlaps the first
		{StartUS: 150, DurUS: 10}, // [150, 160)
		{StartUS: 190, DurUS: 50}, // [190, 240) clipped to [190, 200)
		{StartUS: 300, DurUS: 10}, // outside
	}
	if got, want := coveredUS(parent, kids), int64(30+10+10); got != want {
		t.Fatalf("coveredUS = %d, want %d", got, want)
	}
}
