// Command perfbench is the repository benchmark: it runs one named
// simulator workload from a seed for a fixed wall-clock budget, checks the
// simulated outcome, and prints every metric by name with its unit.
//
//	perfbench --workload host-steady --seed 1 --seconds 25 --trace 0
//
// A run repeats the workload's fixed-size batch (set-up, warm-up, measured
// phase) with the same seed until the budget is spent, so every repetition
// must reproduce the seed's outcome fingerprint: the one committed in
// baseline/fingerprints.json, or the first repetition's for a seed not
// listed there. With --trace 0 it reports the end-to-end metrics as medians
// over the repetitions; with --trace 1 it runs untraced reference
// repetitions, then traced repetitions under a CPU profile, and reports the
// per-layer metrics. The last line of standard output is the JSON result;
// the human-readable report goes to standard error.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds the traced run's span and layer files, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// expect, when set, replaces the committed fingerprint every
	// repetition must produce; the self-check perturbs it to prove a
	// mismatch counts as a failure.
	expect string
	// minReps is how many untraced repetitions a run makes even when the
	// budget is spent.
	minReps int
}

// committedJSON holds the outcome fingerprint of every workload and seed
// the baseline was measured on, keyed by workload, then seed. A change
// that moves the modelled outcome of a listed seed fails its repetitions.
//
//go:embed baseline/fingerprints.json
var committedJSON []byte

// committedFingerprint returns the committed fingerprint of a workload's
// seed, or "" when the seed is not listed.
func committedFingerprint(workload string, seed uint64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(committedJSON, &all); err != nil {
		return "", fmt.Errorf("baseline/fingerprints.json: %w", err)
	}
	return all[workload][strconv.FormatUint(seed, 10)], nil
}

func main() {
	o := options{minReps: 3}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 25, "wall-clock budget for the repetitions")
	flag.IntVar(&trace, "trace", 0, "1 records spans, counts and a CPU profile and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (%s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// rep is one repetition's outcome.
type rep struct {
	m   measurement
	err error
}

// attempt runs one repetition, turning a panic into a failed repetition.
// It starts from a collected heap returned to the OS and a reset peak-RSS
// mark, so one repetition's garbage is not charged to the next.
func attempt(w workload, seed uint64, tr *tracer) (r rep) {
	debug.FreeOSMemory()
	resetPeakRSS()
	defer func() {
		if p := recover(); p != nil {
			r = rep{err: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
		}
	}()
	m, err := w.run(seed, tr)
	m.peakRSS = peakRSSMiB()
	return rep{m: m, err: err}
}

// run executes the repetitions for one invocation and assembles its result.
func run(w workload, o options) (result, error) {
	var reps []rep
	var failures []string
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	want := o.expect
	if want == "" {
		var err error
		if want, err = committedFingerprint(w.name, o.seed); err != nil {
			return result{}, err
		}
	}
	if want == "" {
		fmt.Fprintf(os.Stderr, "perfbench: seed %d has no committed fingerprint; checking repetitions against the first\n", o.seed)
	}
	check := func(r rep) {
		reps = append(reps, r)
		i := len(reps) - 1
		switch {
		case r.err != nil:
			failures = append(failures, fmt.Sprintf("rep %d: %v", i, r.err))
		case want == "":
			want = r.m.fingerprint
		case r.m.fingerprint != want:
			failures = append(failures, fmt.Sprintf("rep %d: fingerprint %s, want %s", i, r.m.fingerprint, want))
		}
	}

	// Untraced repetitions: all of the run without tracing, or the
	// reference the traced repetitions are compared against.
	for len(reps) < o.minReps || (!o.trace && time.Now().Before(deadline)) {
		check(attempt(w, o.seed, nil))
	}
	nRef := len(reps)
	var tr *tracer
	if o.trace {
		var err error
		if tr, err = startTracer(o.workload); err != nil {
			return result{}, err
		}
		for len(reps) < nRef+2 || time.Now().Before(deadline) {
			check(attempt(w, o.seed, tr))
		}
		if err := tr.stop(); err != nil {
			return result{}, err
		}
	}

	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	res := result{
		Attempted: len(reps),
		Failed:    len(failures),
		Correct:   len(failures) == 0,
		Metrics:   map[string]metric{},
	}
	good := func(rs []rep) []measurement {
		var ms []measurement
		for _, r := range rs {
			if r.err == nil {
				ms = append(ms, r.m)
			}
		}
		return ms
	}
	ref, traced := good(reps[:nRef]), good(reps[nRef:])
	if len(ref) == 0 || (o.trace && len(traced) == 0) {
		return res, fmt.Errorf("%s: every untraced or every traced repetition failed", w.name)
	}
	if o.trace {
		res.Metrics = tr.layers(ref)
		if err := writeTraceFiles(w.name, o.seed, tr, res, ref, traced); err != nil {
			return res, err
		}
		report(w, o, traced, res)
	} else {
		res.Metrics = endToEnd(ref)
		report(w, o, ref, res)
	}
	return res, nil
}

// endToEnd reduces the repetitions to the end-to-end metrics: medians over
// the repetitions of their timings, step-time percentiles and peak RSS, and
// the modelled outcome, which every good repetition reproduces exactly.
func endToEnd(ms []measurement) map[string]metric {
	var setup, runS, rate, p50, p99, rss []float64
	for _, m := range ms {
		setup = append(setup, m.setup.Seconds())
		runS = append(runS, m.run.Seconds())
		rate = append(rate, m.simSeconds/m.simWall.Seconds())
		steps := slices.Clone(m.stepUs)
		sort.Float64s(steps)
		p50 = append(p50, quantile(steps, 0.50))
		p99 = append(p99, quantile(steps, 0.99))
		rss = append(rss, m.peakRSS)
	}
	out := ms[0].outcome
	return map[string]metric{
		"setup_s":       {median(setup), "s"},
		"run_s":         {median(runS), "s"},
		"sim_rate":      {median(rate), "sim-s/s"},
		"tick_p50_us":   {median(p50), "us"},
		"tick_p99_us":   {median(p99), "us"},
		"peak_rss_mib":  {median(rss), "MiB"},
		"mem_saved_pct": {out.savedPct, "%"},
		"mem_psi_pct":   {out.psiPct, "%"},
		"app_rps":       {out.rps, "req/s"},
	}
}

// report prints the human-readable summary to standard error.
func report(w workload, o options, ms []measurement, res result) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d reps=%d failed=%d fingerprint=%s\n",
		w.name, o.seed, res.Attempted, res.Failed, ms[0].fingerprint)
	n := 0
	var runs []string
	for _, m := range ms {
		n += len(m.stepUs)
		runs = append(runs, fmt.Sprintf("%.4f/%.3f/%.1f", m.setup.Seconds(), m.run.Seconds(), m.peakRSS))
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup_s/run_s/peak_rss_mib per repetition: %s\n", strings.Join(runs, " "))
	if !o.trace {
		fmt.Fprintf(os.Stderr, "perfbench: %d timed steps (%s) over %d repetitions; layer counts:\n", n, w.step, len(ms))
		printSorted(ms[0].counts, nil)
		fmt.Fprintln(os.Stderr, "perfbench: metrics:")
	}
	vals := map[string]float64{}
	units := map[string]string{}
	for k, m := range res.Metrics {
		vals[k], units[k] = m.Value, m.Unit
	}
	printSorted(vals, units)
}

// printSorted prints name/value pairs in name order to standard error.
func printSorted(vals map[string]float64, units map[string]string) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, vals[k], units[k])
	}
}

// writeTraceFiles writes the traced run's spans and its layer summary,
// which puts the end-to-end metrics of the untraced reference repetitions
// beside those of the traced ones: their run_s gap is the tracing overhead.
func writeTraceFiles(name string, seed uint64, tr *tracer, res result, ref, traced []measurement) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := tr.writeSpans(base + "-spans.jsonl"); err != nil {
		return err
	}
	summary := struct {
		Workload    string             `json:"workload"`
		Seed        uint64             `json:"seed"`
		Fingerprint string             `json:"fingerprint"`
		Untraced    map[string]metric  `json:"end_to_end_untraced"`
		Traced      map[string]metric  `json:"end_to_end_traced"`
		Metrics     map[string]metric  `json:"per_layer"`
		CPUShares   map[string]float64 `json:"cpu_shares"`
		Spans       map[string]spanSum `json:"spans"`
	}{name, seed, ref[0].fingerprint, endToEnd(ref), endToEnd(traced), res.Metrics, tr.shares, tr.spanSummary()}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-layers.json", append(b, '\n'), 0o644)
}
