package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval; Parent indexes the enclosing span, -1 at
// the top level.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory around the calls the benchmark makes into
// each layer, and a CPU profile of the traced repetitions. A nil tracer
// records nothing, which is how untraced repetitions run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int

	profPath  string
	prof      *os.File
	gc0, cpu0 float64

	// Filled by stop.
	gcShare float64
	shares  map[string]float64
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	for n := len(t.open) - 1; n >= 0; n-- {
		if t.open[n] == i {
			t.open = t.open[:n]
			break
		}
	}
}

// gcCPU reads the runtime's cumulative GC and busy CPU-seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// startTracer starts the CPU profile the layer shares are folded from.
func startTracer(name string) (*tracer, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	t := &tracer{t0: time.Now(), profPath: filepath.Join(outDir, name+"-cpu.pprof")}
	f, err := os.Create(t.profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t.prof = f
	t.gc0, t.cpu0 = gcCPU()
	return t, nil
}

// stop ends the profile and folds it into per-layer CPU shares.
func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	gc1, cpu1 := gcCPU()
	if cpu1 > t.cpu0 {
		t.gcShare = (gc1 - t.gc0) / (cpu1 - t.cpu0)
	}
	if err := t.prof.Close(); err != nil {
		return err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", t.profPath).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	t.shares, err = foldTraces(out)
	return err
}

// foldTraces folds `go tool pprof -traces` output into CPU shares per layer.
// A sample whose leaf is in the Go runtime (scheduler, allocator, GC, maps)
// is charged to "runtime"; any other sample to the innermost
// tmo/internal/<pkg> frame on its stack, so standard-library helpers count
// against the layer that called them; "perfbench" is the benchmark's own
// code and "other" whatever has neither.
func foldTraces(out []byte) (map[string]float64, error) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var layer string
	flush := func() {
		if value > 0 {
			if layer == "" {
				layer = "other"
			}
			byLayer[layer] += value
			total += value
		}
		value, layer = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			first = true
			continue
		}
		fn := strings.TrimSpace(line)
		if fn == "" {
			continue
		}
		if first {
			// The sample line: "<value> <leaf function>".
			v, rest, ok := strings.Cut(fn, " ")
			if !ok {
				continue
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				continue
			}
			value, first = d, false
			fn = strings.TrimSpace(rest)
			if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime") {
				layer = "runtime"
				continue
			}
		}
		if layer != "" {
			continue
		}
		if pkg, ok := strings.CutPrefix(fn, "tmo/internal/"); ok {
			layer = pkg[:strings.IndexAny(pkg+".", "./")]
		} else if strings.HasPrefix(fn, "main.") {
			layer = "perfbench"
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	shares := map[string]float64{}
	for k, v := range byLayer {
		shares[k] = float64(v) / float64(total)
	}
	return shares, nil
}

// spanSum summarises the spans of one name.
type spanSum struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
}

// spanSummary is each span name's count, total and self time (its
// duration less the part its child spans cover), and duration quantiles.
func (t *tracer) spanSummary() map[string]spanSum {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	out := map[string]spanSum{}
	for i, s := range t.spans {
		d := s.End - s.Start
		sum := out[s.Name]
		sum.Count++
		sum.TotalS += float64(d) / 1e9
		sum.SelfS += float64(d-child[i]) / 1e9
		out[s.Name] = sum
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	for name, ds := range durs {
		sort.Float64s(ds)
		sum := out[name]
		sum.P50Us, sum.P99Us = quantile(ds, 0.5), quantile(ds, 0.99)
		out[name] = sum
	}
	return out
}

// medianSpan is the median duration in seconds of the spans of one name.
func (t *tracer) medianSpan(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e9)
		}
	}
	return median(ds)
}

// busyFrac is the share of the measured ticks' time spent in the named
// child spans of sim.tick.
func (t *tracer) busyFrac(name string) float64 {
	var busy, ticks int64
	for _, s := range t.spans {
		switch {
		case s.Name == "sim.tick":
			ticks += s.End - s.Start
		case s.Name == name && s.Parent >= 0 && t.spans[s.Parent].Name == "sim.tick":
			busy += s.End - s.Start
		}
	}
	if ticks == 0 {
		return 0
	}
	return float64(busy) / float64(ticks)
}

// layerMetric is one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics are the per-layer metrics every traced run reports, the
// per_layer list of BENCHMARK.json. A layer a workload does not exercise
// reports 0.
var layerMetrics = []layerMetric{
	{"workload.cpu_share", "fraction"}, {"workload.requests", "count"},
	{"mm.cpu_share", "fraction"}, {"mm.pages_scanned", "count"}, {"mm.reclaim_yield", "ratio"},
	{"mm.swap_ins", "count"}, {"mm.refaults", "count"}, {"mm.direct_reclaims", "count"},
	{"mm.fault_p99_us", "us"},
	{"backend.cpu_share", "fraction"}, {"backend.ssd_writes", "count"}, {"backend.ssd_written_mib", "MiB"},
	{"backend.chain_demotions", "count"}, {"backend.chain_promotions", "count"},
	{"backend.chain_admit_skips", "count"}, {"backend.wb_backpressure_stalls", "count"},
	{"senpai.busy_frac", "fraction"}, {"senpai.runs", "count"}, {"senpai.reclaim_yield", "ratio"},
	{"place.cpu_share", "fraction"}, {"place.promotions", "count"}, {"place.promo_success_ratio", "ratio"},
	{"psi.cpu_share", "fraction"}, {"psi.stall_integrations", "count"}, {"telemetry.cpu_share", "fraction"},
	{"sim.ticks", "count"}, {"sim.allocs_per_tick", "count/tick"}, {"sim.alloc_bytes_per_tick", "B/tick"},
	{"sim.gc_cpu_share", "fraction"}, {"runtime.cpu_share", "fraction"},
	{"core.new_s", "s"},
	{"twin.calibrate_s", "s"}, {"twin.fidelity_gate_s", "s"}, {"twin.cpu_share", "fraction"}, {"twin.hosts", "count"},
	{"rollout.run_s", "s"}, {"rollout.cpu_share", "fraction"}, {"rollout.host_windows", "count"},
	{"rollout.policy_pushes", "count"},
	{"tsdb.cpu_share", "fraction"}, {"tsdb.series", "count"}, {"tsdb.samples", "count"}, {"tsdb.export_s", "s"},
	{"slo.cpu_share", "fraction"}, {"slo.burn_alerts", "count"},
}

// layers assembles the per-layer metrics: counts (their median, as the
// allocation counts vary a little) from the untraced reference
// repetitions, span times and CPU shares from the traced ones.
func (t *tracer) layers(ref []measurement) map[string]metric {
	vals := map[string]float64{}
	for k := range ref[0].counts {
		var xs []float64
		for _, m := range ref {
			xs = append(xs, m.counts[k])
		}
		vals[k] = median(xs)
	}
	for layer, share := range t.shares {
		vals[layer+".cpu_share"] = share
	}
	vals["senpai.busy_frac"] = t.busyFrac("senpai.tick")
	vals["sim.gc_cpu_share"] = t.gcShare
	for name, span := range map[string]string{
		"core.new_s": "core.new", "twin.calibrate_s": "twin.calibrate",
		"twin.fidelity_gate_s": "twin.fidelity_gate", "rollout.run_s": "rollout.run",
		"tsdb.export_s": "tsdb.export",
	} {
		vals[name] = t.medianSpan(span)
	}
	out := map[string]metric{}
	for _, lm := range layerMetrics {
		out[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return out
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
