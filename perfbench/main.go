// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process through the public entry points cmd/repro and
// cmd/perfi call, checks every simulated outcome against digests recorded
// from the program, and prints one JSON result line. With -trace 1 it
// instead drives the same work one layer call at a time under spans and
// reports per-layer metrics. README.md describes the workloads and
// metrics; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload twolevel --seed 1 --seconds 56 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/telemetry"
)

// expectedJSON holds, per workload, the outcome digest of each campaign
// seed 1..len, recorded from the program with -record.
//
//go:embed expected.json
var expectedJSON []byte

// setupProbes is how many times a run measures its own set-up.
const setupProbes = 41

// outDir, relative to the repository root, receives the Chrome traces.
const outDir = ".bench_build/traces"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "twolevel | rtl")
	seed := fs.Int64("seed", 1, "workload seed; selects the campaign seeds the run uses")
	seconds := fs.Float64("seconds", 20, "measurement length; sets the number of calls")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	probe := fs.Bool("setup-probe", false, "exit just before the first timed call, printing the wall clock in ns (used by the run itself)")
	record := fs.Bool("record", false, "print the outcome digests of every campaign seed of -workload (all workloads if empty) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		return recordDigests(*name, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	want, err := expectedDigests(w.name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// Enough inputs for a fast host; a run stops making calls when its
	// time is up.
	calls := prepareCalls(w, *seed, int(*seconds/w.callSeconds)+1, want)
	if *probe {
		fmt.Fprintln(stdout, time.Now().UnixNano())
		return 0
	}

	prov := provenance(w.name, *seed, *traceFlag, calls)
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(stdout, string(line))

	var res result
	if *traceFlag == 1 {
		res, err = traced(w, *seed, calls, *seconds, stderr)
	} else {
		res, err = timed(w, args, calls, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// call is one timed call of a workload: its campaign seed, prepared inputs
// and the outcome digest recorded for that seed.
type call struct {
	seed int64
	in   any
	want string
}

// prepareCalls builds the inputs of n calls. Campaign seeds come from the
// recorded pool 1..len(want): the window of n consecutive seeds starting
// at pool seed seed (taken modulo the pool, wrapping), so seed 1 starts at
// cmd/repro's default seed and the windows of consecutive seeds share all
// but one campaign seed.
func prepareCalls(w workload, seed int64, n int, want []string) []call {
	k := int64(len(want))
	n = min(n, len(want))
	start := ((seed-1)%k + k) % k
	calls := make([]call, n)
	for j := range calls {
		idx := (start + int64(j)) % k
		cs := idx + 1
		calls[j] = call{seed: cs, in: w.prepare(cs), want: want[idx]}
	}
	return calls
}

func expectedDigests(name string) ([]string, error) {
	var all map[string][]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	want := all[name]
	if len(want) == 0 {
		return nil, fmt.Errorf("expected.json records no digests for %q", name)
	}
	return want, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts one call as attempted, and as failed when err is non-nil,
// and returns its status for the progress line.
func (r *result) tally(err error) string {
	r.Attempted++
	if err != nil {
		r.Failed++
		return "FAILED: " + err.Error()
	}
	return "ok"
}

// invoke makes one call, turning a panic into an error.
func invoke(f func() (outcome, error)) (o outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// check makes one call and compares its outcome with the recorded digest.
func check(f func() (outcome, error), want string) (outcome, error) {
	o, err := invoke(f)
	if err == nil && o.digest != want {
		err = fmt.Errorf("outcome digest %.16s, recorded %.16s", o.digest, want)
	}
	return o, err
}

// minCalls is how many calls a run makes however long they take.
const minCalls = 2

// timeLeft reports whether a run that started at start and has made done
// calls has time for one more of the mean length so far.
func timeLeft(start time.Time, done int, seconds float64) bool {
	if done < minCalls {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(done) <= seconds
}

// timed makes the run's calls untraced, one campaign seed after another,
// until its time is up, and reports the end-to-end metrics as means over
// the calls made. Over a run of tens of seconds the mean is steadier than
// the median: the host's slow spells and the costly seeds are averaged in
// rather than picked or dropped according to which side of the middle
// they fall.
func timed(w workload, args []string, calls []call, seconds float64, stderr io.Writer) (result, error) {
	setup, err := measureSetup(args)
	if err != nil {
		return result{}, err
	}
	ctx := context.Background()
	res := result{Metrics: map[string]metric{}}
	var wall, work, alloc float64
	start := time.Now()
	for j, c := range calls {
		if !timeLeft(start, j, seconds) {
			break
		}
		runtime.GC()
		a0 := totalAlloc()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		o, err := check(func() (outcome, error) { return w.run(ctx, c.in) }, c.want)
		d := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		wall += d
		work += o.work
		alloc += float64(totalAlloc()-a0) / (1 << 20)
		fmt.Fprintf(stderr, "call %d/%d campaign seed %d: %.3f s (cpu %.3f s), work %.0f, %s\n",
			j+1, len(calls), c.seed, d, cpu, o.work, res.tally(err))
	}
	n := float64(res.Attempted)
	res.Correct = res.Failed == 0
	res.Metrics["wall_s"] = metric{wall / n, "s"}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["work_per_s"] = metric{work / wall, "1/s"}
	res.Metrics["alloc_mb"] = metric{alloc / n, "MiB"}
	res.Metrics["peak_rss_mb"] = metric{peakRSS(), "MiB"}
	return res, nil
}

// measureSetup starts the benchmark again setupProbes times in probe mode
// and returns the median time from starting the process to its first
// timed call, package initialisation and input preparation included.
func measureSetup(args []string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, append(append([]string{}, args...), "-setup-probe")...)
		cmd.Stderr = os.Stderr
		t0 := time.Now().UnixNano()
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		t1, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe output %q: %w", out, err)
		}
		ts = append(ts, float64(t1-t0)/1e9)
	}
	return median(ts), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSS is the process's maximum resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// traced runs inputs untraced and traced, alternating which goes first,
// until its time is up, and reports the per-layer metrics as means over
// the traced calls. Every metric is printed; a layer the workload does not
// exercise reads 0.
func traced(w workload, seed int64, calls []call, seconds float64, stderr io.Writer) (result, error) {
	ctx := context.Background()
	tr := newTracer()
	res := result{Metrics: map[string]metric{}}
	sums := map[string]float64{}
	var untracedS, tracedS float64
	var gcCycles, gcCPU float64
	apps := appNames()
	start := time.Now()
	n := 0
	for j, c := range calls {
		if !timeLeft(start, j, seconds) {
			break
		}
		n++
		for k := 0; k < 2; k++ {
			withTrace := (j+k)%2 == 1
			runtime.GC()
			var o outcome
			var err error
			if withTrace {
				before, _ := tr.rec.Snapshot()
				tr.counts = map[string]float64{} // no call is in flight
				o, err = check(func() (outcome, error) { return w.trace(ctx, c.in, tr) }, c.want)
				spans, _ := tr.rec.Snapshot()
				spans = spans[len(before):]
				for name, v := range layerMetrics(spans, tr.counts, apps) {
					sums[name] += v
				}
				for _, s := range spans {
					if s.Name == "perfbench.call" {
						tracedS += float64(s.DurUS) / 1e6
					}
				}
			} else {
				c0, g0 := gcState()
				t0 := time.Now()
				o, err = check(func() (outcome, error) { return w.run(ctx, c.in) }, c.want)
				untracedS += time.Since(t0).Seconds()
				c1, g1 := gcState()
				gcCycles += c1 - c0
				gcCPU += g1 - g0
			}
			fmt.Fprintf(stderr, "call %d/%d campaign seed %d traced=%v: work %.0f, %s\n",
				j+1, len(calls), c.seed, withTrace, o.work, res.tally(err))
		}
	}
	res.Correct = res.Failed == 0
	for _, m := range perLayer(apps) {
		res.Metrics[m.name] = metric{sums[m.name] / float64(n), m.unit}
	}
	res.Metrics["runtime.gc_cycles"] = metric{gcCycles / float64(n), "count"}
	res.Metrics["runtime.gc_cpu_s"] = metric{gcCPU / float64(n), "s"}
	overhead := 0.0
	if untracedS > 0 {
		overhead = tracedS/untracedS - 1
	}
	res.Metrics["trace.overhead_frac"] = metric{overhead, "fraction"}
	return res, writeTrace(tr, w.name, seed, stderr)
}

func writeTrace(tr *tracer, name string, seed int64, stderr io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stderr, "Chrome trace:", path)
	return nil
}

func appNames() []string {
	var names []string
	for _, w := range cnn.Evaluation15() {
		names = append(names, w.Name())
	}
	return names
}

// unitNames are the units.All() names; listing them here keeps the
// netlists from being built at package initialisation, inside set-up.
var unitNames = []string{"wsc", "fetch", "decoder"}

type layerMetric struct{ name, unit string }

// perLayer lists the per-layer metrics computed per traced call by
// layerMetrics, in the order BENCHMARK.json lists them.
func perLayer(apps []string) []layerMetric {
	ms := []layerMetric{
		{"campaign.profile_s", "s"}, {"campaign.gate_s", "s"}, {"campaign.software_s", "s"},
		{"campaign.software_busy_frac", "fraction"}, {"campaign.max_app_s", "s"},
	}
	for _, a := range apps {
		ms = append(ms, layerMetric{"perfi.app_s." + a, "s"})
	}
	ms = append(ms,
		layerMetric{"perfi.ms_per_injection", "ms"}, layerMetric{"perfi.injections", "count"},
		layerMetric{"perfi.due_frac", "fraction"},
		layerMetric{"gpu.golden_s", "s"}, layerMetric{"gpu.issues", "count"},
		layerMetric{"gpu.issues_per_s", "1/s"}, layerMetric{"gpu.thread_ops_per_s", "1/s"},
		layerMetric{"workloads.build_s", "s"},
		layerMetric{"profiler.collect_s", "s"}, layerMetric{"profiler.patterns", "count"},
		layerMetric{"profiler.dyn_instrs", "count"})
	for _, u := range unitNames {
		ms = append(ms, layerMetric{"gatesim.unit_s." + u, "s"})
	}
	for _, u := range unitNames {
		ms = append(ms, layerMetric{"gatesim.ns_per_fault_pattern." + u, "ns"})
	}
	ms = append(ms, layerMetric{"gatesim.alloc_mb", "MiB"},
		layerMetric{"rtlfi.micro_s", "s"}, layerMetric{"rtlfi.micro_sites", "count"},
		layerMetric{"rtlfi.tmxm_s", "s"}, layerMetric{"rtlfi.tmxm_sites", "count"},
		layerMetric{"rtlfi.tmxm_ms_per_site", "ms"}, layerMetric{"rtlfi.micro_alloc_mb", "MiB"},
		layerMetric{"syndrome.fit_s", "s"})
	for _, l := range layers {
		ms = append(ms, layerMetric{"self_s." + l, "s"})
	}
	return ms
}

// layerMetrics computes one traced call's per-layer metrics from its spans
// and counts.
func layerMetrics(spans []telemetry.SpanRecord, counts map[string]float64, apps []string) map[string]float64 {
	byName, self := spanTotals(spans)
	m := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["campaign.profile_s"] = byName["campaign.ProfileStep"]
	m["campaign.gate_s"] = byName["campaign.ParallelMapCtx/gate"]
	sw := byName["campaign.ParallelMapCtx/software"]
	m["campaign.software_s"] = sw
	busy := sumPrefix(byName, "campaign.SoftwareStep/")
	m["campaign.software_busy_frac"] = ratio(busy, counts["campaign.software_workers"]*sw)
	for _, a := range apps {
		v := byName["campaign.SoftwareStep/"+a]
		m["perfi.app_s."+a] = v
		m["campaign.max_app_s"] = max(m["campaign.max_app_s"], v)
	}

	inj := counts["perfi.injections"]
	m["perfi.injections"] = inj
	m["perfi.ms_per_injection"] = ratio(1e3*busy, inj)
	m["perfi.due_frac"] = ratio(counts["perfi.due"], inj)

	golden := sumPrefix(byName, "workloads.Job.Run/")
	m["gpu.golden_s"] = golden
	m["gpu.issues"] = counts["gpu.issues"]
	m["gpu.issues_per_s"] = ratio(counts["gpu.issues"], golden)
	m["gpu.thread_ops_per_s"] = ratio(counts["gpu.thread_ops"], golden)
	m["workloads.build_s"] = sumPrefix(byName, "workloads.Workload.Build/") +
		sumPrefix(byName, "workloads.TiledMxMJob/")

	m["profiler.collect_s"] = byName["campaign.ProfileStep"]
	m["profiler.patterns"] = counts["profiler.patterns"]
	m["profiler.dyn_instrs"] = counts["profiler.dyn_instrs"]

	for _, u := range unitNames {
		s := byName["campaign.GateStep/"+u]
		m["gatesim.unit_s."+u] = s
		m["gatesim.ns_per_fault_pattern."+u] = ratio(1e9*s, counts["gatesim.fault_patterns."+u])
	}
	m["gatesim.alloc_mb"] = counts["gatesim.alloc_bytes"] / (1 << 20)

	m["rtlfi.micro_s"] = sumPrefix(byName, "rtlfi.MicroAVF/")
	m["rtlfi.micro_sites"] = counts["rtlfi.micro_sites"]
	m["rtlfi.tmxm_s"] = byName["rtlfi.RunTMxMStudy"]
	m["rtlfi.tmxm_sites"] = counts["rtlfi.tmxm_sites"]
	m["rtlfi.tmxm_ms_per_site"] = ratio(1e3*byName["rtlfi.RunTMxMStudy"], counts["rtlfi.tmxm_sites"])
	m["rtlfi.micro_alloc_mb"] = counts["rtlfi.micro_alloc_bytes"] / (1 << 20)
	m["syndrome.fit_s"] = sumPrefix(byName, "syndrome.")

	for _, l := range layers {
		m["self_s."+l] = self[l]
	}
	return m
}

// recordDigests runs every campaign seed of the pool once and prints the
// outcome digests in expected.json's format.
func recordDigests(name string, stdout, stderr io.Writer) int {
	const pool = 64
	out := map[string][]string{}
	for _, w := range allWorkloads {
		if name != "" && w.name != name {
			continue
		}
		for s := int64(1); s <= pool; s++ {
			o, err := invoke(func() (outcome, error) { return w.run(context.Background(), w.prepare(s)) })
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, s, err)
				return 1
			}
			fmt.Fprintf(stderr, "%s seed %d: %s\n", w.name, s, o.digest)
			out[w.name] = append(out[w.name], o.digest)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	fmt.Fprintln(stdout, string(b))
	return 0
}

// provenance describes where and on what a result was measured.
func provenance(name string, seed int64, trace int, calls []call) map[string]any {
	var seeds []int64
	for _, c := range calls {
		seeds = append(seeds, c.seed)
	}
	return map[string]any{
		"workload":       name,
		"seed":           seed,
		"trace":          trace,
		"campaign_seeds": seeds,
		"cpus":           runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         gitCommit(),
		"source_sha256":  sourceDigest(),
		"accuracy":       "not reported: the repository holds no silicon reference; outcomes are checked for identity with recorded digests",
	}
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a git work tree reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, r, ok := strings.Cut(line, " "); ok && r == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the program's sources (go.mod and every .go
// file under cmd/ and internal/), which identifies the code measured even
// where no commit is available.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
	}
	sort.Strings(files)
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
