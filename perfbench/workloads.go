package main

import (
	"context"
	"fmt"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/rtlfi"
	"gpufaultsim/internal/syndrome"
)

// Workload sizes. Each is the smallest shape that keeps the workload's
// layer mix (see README.md) while letting a run make many calls on
// different campaign seeds, so that one seed's cost weighs little.
const (
	twoLevelPatterns   = 512 // repro -scale default
	twoLevelInjections = 8   // per app per model
	microValues        = 1   // repro -scale default is 2
	microLanes         = 1   // repro -scale default is 2
	tmxmValues         = 1   // repro -scale default is 2
	tmxmStride         = 16  // repro -scale default is 8
)

// outcome is what one call of a workload produced: a digest of every
// simulated result, checked against the recorded value, and the amount of
// work it did in the workload's own unit (injections or injected sites),
// which gives work_per_s.
type outcome struct {
	digest string
	work   float64
}

// workload is one benchmark workload: prepare builds the inputs of a seed
// (the run's set-up), run makes the untraced call users make, and trace
// drives the same work through the layers' public functions with a span
// around each call.
type workload struct {
	name string
	// callSeconds is one call's time on a fast 2-CPU host; a run prepares
	// -seconds/callSeconds+1 calls and makes those its time allows.
	callSeconds float64
	prepare     func(seed int64) any
	run         func(ctx context.Context, in any) (outcome, error)
	trace       func(ctx context.Context, in any, t *tracer) (outcome, error)
}

var allWorkloads = []workload{
	{name: "twolevel", callSeconds: 2.5, prepare: prepareTwoLevel, run: runTwoLevel, trace: traceTwoLevel},
	{name: "rtl", callSeconds: 1.8, prepare: prepareRTL, run: runRTL, trace: traceRTL},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// --- twolevel: campaign.RunTwoLevelCtx -------------------------------------

func prepareTwoLevel(seed int64) any {
	return campaign.TwoLevelConfig{
		Seed:        seed,
		MaxPatterns: twoLevelPatterns,
		EvalApps:    cnn.Evaluation15(),
		Injections:  twoLevelInjections,
	}
}

func runTwoLevel(ctx context.Context, in any) (outcome, error) {
	cfg := in.(campaign.TwoLevelConfig)
	res, err := campaign.RunTwoLevelCtx(ctx, cfg)
	if err != nil {
		return outcome{}, err
	}
	return twoLevelOutcome(cfg.Defaults(), res)
}

// twoLevelOutcome digests the artifacts a two-level run publishes — the
// exciting patterns, one gate report plus per-fault classes per unit, and
// the software report — and counts its work in injections.
func twoLevelOutcome(cfg campaign.TwoLevelConfig, res *campaign.Results) (outcome, error) {
	type gateDigest struct {
		Report  *artifact.GateReport
		Classes []int
	}
	d := struct {
		Patterns  string
		DynInstrs uint64
		Gate      []gateDigest
		Software  *artifact.SoftwareReport
	}{
		Patterns:  artifact.PatternsDigest(res.Profile.Patterns),
		DynInstrs: res.Profile.DynInstrs,
		Software:  artifact.NewSoftwareReport(cfg.Seed, cfg.Injections, res.Apps),
	}
	for _, u := range res.Units {
		g := gateDigest{Report: artifact.NewGateReport(cfg.Seed, u.Summary, u.Collector)}
		for _, c := range u.Summary.Class {
			g.Classes = append(g.Classes, int(c))
		}
		d.Gate = append(d.Gate, g)
	}
	sum, err := artifact.Digest(d)
	if err != nil {
		return outcome{}, err
	}
	return outcome{digest: sum, work: float64(injections(res.Apps))}, nil
}

func injections(apps []*perfi.AppResult) int {
	n := 0
	for _, a := range apps {
		for _, t := range a.ByModel {
			n += t.Total()
		}
	}
	return n
}

// --- rtl: Figure 2, the Figures 4-5 syndrome fits, and the t-MxM study -----

type rtlInput struct {
	micro rtlfi.MicroConfig
	tmxm  rtlfi.TMxMConfig
}

func prepareRTL(seed int64) any {
	return rtlInput{
		micro: rtlfi.MicroConfig{Seed: seed, ValuesPerRange: microValues, LanesSampled: microLanes},
		tmxm:  rtlfi.TMxMConfig{Seed: seed, ValuesPerTile: tmxmValues, SiteStride: tmxmStride},
	}
}

// syndromeOps are the instructions whose syndromes cmd/repro fits for
// Figures 4-5.
var syndromeOps = []isa.Opcode{isa.OpFADD, isa.OpFMUL, isa.OpFFMA, isa.OpIADD, isa.OpIMUL, isa.OpIMAD}

// syndromeRow is one Figures 4-5 panel: the decade histogram and the fit
// figures at the precision cmd/repro prints them.
type syndromeRow struct {
	Op, Module string
	Buckets    [12]int
	Fit        string
}

func runRTL(ctx context.Context, in any) (outcome, error) {
	r := in.(rtlInput)
	rows, syn := rtlfi.Figure2(r.micro)
	var fits []syndromeRow
	for _, op := range syndromeOps {
		for _, m := range rtlfi.ModulesFor(op) {
			res := rtlfi.RelativeErrors(syn[[2]int{int(op), int(m)}], op.Unit() == isa.UnitFP32)
			if len(res) == 0 {
				continue
			}
			fits = append(fits, fitSyndrome(op, m, res, nil))
		}
	}
	if err := ctx.Err(); err != nil {
		return outcome{}, err
	}
	st := rtlfi.RunTMxMStudy(r.tmxm)
	return rtlOutcome(rows, fits, st)
}

// fitSyndrome runs the syndrome analyses cmd/repro prints for one panel:
// the histogram, the power-law fit and the Shapiro-Wilk test. span, when
// non-nil, opens a span around each call.
func fitSyndrome(op isa.Opcode, m rtlfi.Module, res []float64, span func(string) func()) syndromeRow {
	if span == nil {
		span = func(string) func() { return func() {} }
	}
	row := syndromeRow{Op: op.String(), Module: m.String()}
	end := span("syndrome.Build")
	row.Buckets = syndrome.Build(res).Buckets
	end()
	end = span("syndrome.Fit")
	fit, err := syndrome.Fit(res)
	end()
	if err != nil {
		row.Fit = "no fit"
		return row
	}
	row.Fit = fmt.Sprintf("alpha=%.2f xmin=%.3g KS=%.3f", fit.Alpha, fit.Xmin, fit.KS)
	end = span("syndrome.ShapiroWilk")
	_, p, swErr := syndrome.ShapiroWilk(res[:min(len(res), 5000)])
	end()
	if swErr == nil {
		row.Fit += fmt.Sprintf(" p=%.3g", p)
	}
	return row
}

func rtlOutcome(rows []rtlfi.AVFRow, fits []syndromeRow, st *rtlfi.TMxMStudy) (outcome, error) {
	sum, err := artifact.Digest(struct {
		AVF          []rtlfi.AVFRow
		Syndromes    []syndromeRow
		TMxM         []rtlfi.TMxMRow
		Patterns     map[rtlfi.Module]map[rtlfi.PatternKind]int
		RowExample   []rtlfi.CorruptPair
		BlockExample []rtlfi.CorruptPair
	}{rows, fits, st.Rows, st.Patterns, st.RowExample, st.BlockExample})
	if err != nil {
		return outcome{}, err
	}
	return outcome{digest: sum, work: float64(microSites(rows) + tmxmSites(st))}, nil
}

func microSites(rows []rtlfi.AVFRow) int {
	n := 0
	for _, r := range rows {
		n += r.Injections
	}
	return n
}

func tmxmSites(st *rtlfi.TMxMStudy) int {
	n := 0
	for _, r := range st.Rows {
		n += r.Injections
	}
	return n
}
