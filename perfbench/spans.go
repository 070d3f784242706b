package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"

	"gpufaultsim/internal/telemetry"
)

// tracer records the traced run: spans from the benchmark's own files into
// a private flight recorder (never the program's internal spans), and
// exact counts read from the layers' results.
type tracer struct {
	rec *telemetry.FlightRecorder

	mu     sync.Mutex
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{rec: telemetry.NewFlightRecorder(1 << 16), counts: map[string]float64{}}
}

// start opens a root span attributed to layer.
func (t *tracer) start(name, layer string) *telemetry.Span {
	sp := t.rec.StartSpan(name)
	sp.SetAttr("layer", layer)
	return sp
}

// call opens the root span of one traced workload call; its duration is
// what trace.overhead_frac compares with the untraced call.
func (t *tracer) call() *telemetry.Span { return t.start("perfbench.call", "perfbench") }

// span opens a child span around one call into layer.
func (t *tracer) span(parent *telemetry.Span, layer, name string) *telemetry.Span {
	sp := parent.Child(name)
	sp.SetAttr("layer", layer)
	return sp
}

// count adds v to a named count; pool workers call it concurrently.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// layers are the modules the per-layer self times are reported for.
var layers = []string{"campaign", "profiler", "gatesim", "perfi", "gpu", "workloads", "rtlfi", "syndrome"}

// spanTotals sums the durations of the recorded spans by name, and the
// self time of each layer: a span's duration minus the part of its
// interval that its children cover (children of a pool span overlap, so
// their union is taken, not their sum).
func spanTotals(spans []telemetry.SpanRecord) (byName, self map[string]float64) {
	byName, self = map[string]float64{}, map[string]float64{}
	children := map[uint64][]telemetry.SpanRecord{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		byName[s.Name] += float64(s.DurUS) / 1e6
		covered := coveredUS(s, children[s.ID])
		self[s.Attrs["layer"]] += float64(s.DurUS-covered) / 1e6
	}
	return byName, self
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredUS(parent telemetry.SpanRecord, kids []telemetry.SpanRecord) int64 {
	type iv struct{ a, b int64 }
	end := parent.StartUS + parent.DurUS
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartUS, parent.StartUS), min(k.StartUS+k.DurUS, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// sumPrefix adds the totals of every span whose name starts with prefix.
func sumPrefix(byName map[string]float64, prefix string) float64 {
	s := 0.0
	for name, v := range byName {
		if strings.HasPrefix(name, prefix) {
			s += v
		}
	}
	return s
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcState reads the completed GC cycles and the CPU seconds spent in GC.
func gcState() (cycles, cpuSeconds float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64()
}
