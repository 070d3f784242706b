// Package telemetrylint is the analyzer fixture for the instrumented-
// file discipline: timing through telemetry.Timer, span lifecycle, and
// handle hoisting.
package telemetrylint

//vetsim:instrumented

import (
	"time"

	"gpufaultsim/internal/telemetry"
)

var packageHandle = telemetry.Default().Counter("fixture_events_total", "package-level handles are the blessed form")

func rawSince(start time.Time) float64 {
	return time.Since(start).Seconds() // want "raw time.Since in instrumented file"
}

func timerOK(h *telemetry.Histogram) float64 {
	tm := telemetry.StartTimer(h)
	packageHandle.Inc()
	return tm.Stop()
}

func leakedSpan() {
	sp := telemetry.StartSpan("phase") // want "span \"sp\" is started but never ended"
	sp.SetAttr("k", "v")
}

func endedSpan() {
	sp := telemetry.StartSpan("phase")
	defer sp.End()
}

func nestedDeferredEnd(parent *telemetry.Span, cond bool) {
	if cond {
		sp := parent.Child("stage")
		defer sp.End() // want "span \"sp\" is started in a nested block but its End is deferred"
		sp.SetAttr("k", "v")
	}
	for i := 0; i < 2; i++ {
		sp := telemetry.StartSpan("iteration")
		defer sp.End() // want "span \"sp\" is started in a nested block but its End is deferred"
	}
}

func nestedEndedAtBlockEnd(parent *telemetry.Span, cond bool) {
	if cond {
		sp := parent.Child("stage")
		sp.SetAttr("k", "v")
		sp.End()
	}
}

func nestedDeferInClosure(parent *telemetry.Span, cond bool) {
	if cond {
		sp := parent.Child("stage")
		func() {
			defer sp.End() // the literal's own return: ends with the block
			sp.SetAttr("k", "v")
		}()
	}
}

func leakedChild(parent *telemetry.Span) {
	sp := parent.Child("stage") // want "span \"sp\" is started but never ended"
	sp.SetAttr("k", "v")
}

func handedOff() *telemetry.Span {
	sp := telemetry.StartSpan("phase")
	return sp // visible hand-off: the caller owns the End
}

func handleInLoop(r *telemetry.Registry) {
	for i := 0; i < 3; i++ {
		c := r.Counter("hot_total", "per-iteration registration") // want "telemetry handle Counter created inside a loop"
		c.Inc()
	}
}

func handleInRangeClosure(r *telemetry.Registry, names []string) {
	for _, name := range names {
		func() {
			g := r.Gauge(name, "registered under a loop through a closure") // want "telemetry handle Gauge created inside a loop"
			g.Set(1)
		}()
	}
}
