package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tmo/internal/senpai"
	"tmo/internal/vclock"
)

// outcome is the modelled result of a repetition; it is exact per seed.
type outcome struct {
	// savedPct is net-resident savings against the apps' footprint.
	savedPct float64
	// psiPct is mean memory some-pressure over the measured phase.
	psiPct float64
	// rps is served requests per second over the measured phase.
	rps float64
}

// measurement is one repetition's timings, outcome and layer counts.
type measurement struct {
	setup, run time.Duration
	// simSeconds is the simulated host-seconds advanced in simWall.
	simSeconds float64
	simWall    time.Duration
	// stepUs is the wall time of every simulated step in the measured
	// phase: a 100 ms tick on a host, a barrier window on the fleet.
	stepUs []float64
	// peakRSS is the repetition's peak resident set in MiB.
	peakRSS     float64
	outcome     outcome
	fingerprint string
	// counts are the per-layer counters, deterministic per seed except
	// the allocation figures.
	counts map[string]float64
}

// workload is one named benchmark input.
type workload struct {
	name string
	// step names what one timed step is.
	step string
	run  func(seed uint64, tr *tracer) (measurement, error)
}

// The workloads, each chosen to put a different layer under load (see
// BASELINE.md for the predictions each one carries).
var workloads = []workload{
	{
		// Low pressure, light offload: the request loop (workload →
		// mm.Touch) is nearly all the work, so a request-loop change shows
		// here and a reclaim or backend change should not.
		name: "host-steady", step: "100 ms host tick",
		run: hostSpec{
			apps: []string{"feed", "web", "cache-a"}, mode: "zswap",
			capacity: 2, senpai: senpai.ConfigA,
			warm: 5 * vclock.Minute, measure: 30 * vclock.Minute,
			check: func(h *hostRun) error {
				if h.outcome.savedPct <= 0 {
					return fmt.Errorf("host-steady: savings %.3f%%, want > 0", h.outcome.savedPct)
				}
				if n := sum(h.end, "mm.oom_events"); n != 0 {
					return fmt.Errorf("host-steady: %v OOM events, want 0", n)
				}
				return nil
			},
		}.run,
	},
	{
		// A 3-tier chain on a slow SSD under aggressive Senpai: reclaim
		// writes (store batches, watermark demotions, writeback queue) run
		// beside refault reads, so mm reclaim, the fault path and the
		// backend do their most work here. ads-a compresses 1.4x, below
		// both compressed tiers' 1.5x admission threshold, so its pages
		// skip them and go to SSD, through a writeback queue one
		// submission deep that stalls the reclaimer when it is full.
		name: "host-squeeze", step: "100 ms host tick",
		run: hostSpec{
			apps: []string{"cache-b", "ads-a"}, mode: "tiered", tiers: "lz4:4m,zstd:2m,ssd",
			admit: 1.5, wbDepth: 1, device: "G", capacity: 0.8, senpai: squeezeConfig,
			warm: 5 * vclock.Minute, measure: 30 * vclock.Minute,
			check: func(h *hostRun) error {
				if n := sum(h.end, "backend.ssd.writes"); n <= 0 {
					return fmt.Errorf("host-squeeze: %v SSD-tier writes, want > 0", n)
				}
				if n := sum(h.end, "backend.tier.demotions"); n <= 0 {
					return fmt.Errorf("host-squeeze: %v chain demotions, want > 0", n)
				}
				if n := sum(h.end, "backend.chain.admit_skips"); n <= 0 {
					return fmt.Errorf("host-squeeze: %v admission skips, want > 0", n)
				}
				if n := sum(h.end, "backend.wb.backpressure_stalls"); n <= 0 {
					return fmt.Errorf("host-squeeze: %v writeback backpressure stalls, want > 0", n)
				}
				return nil
			},
		}.run,
	},
	{
		// The placement-scorecard host: far LRU, sampling and
		// promotion/demotion migrations instead of swap; the only
		// workload where the place layer runs.
		name: "host-cxl-place", step: "100 ms host tick",
		run: hostSpec{
			apps: []string{"ads-b"}, mode: "cxl", device: "C",
			capacity: 0.9, cxl: 0.5, clamp: 0.55,
			warm: 5 * vclock.Minute, measure: 30 * vclock.Minute,
			check: func(h *hostRun) error {
				if n := sum(h.end, "place.promotions"); n <= 0 {
					return fmt.Errorf("host-cxl-place: %v promotions, want > 0", n)
				}
				return nil
			},
		}.run,
	},
	{
		// A 100k-host two-fidelity bandit campaign with the observability
		// plane on: twins, rollout barriers and tsdb/slo do most of the
		// work; the page-level loop runs only in calibration probes and
		// the full-fidelity anchors.
		name: "fleet-twin", step: "30 s fleet barrier window",
		run: runFleetTwin,
	},
}

// squeezeConfig is Senpai's aggressive ConfigB with its memory-pressure
// threshold set to 0.0015.
func squeezeConfig() senpai.Config {
	c := senpai.ConfigB()
	c.MemPressureThreshold = 0.0015
	return c
}

// A repetition constructs its run at least minBuilds times and for at least
// minBuildTime, keeps the last construction and reports the median time:
// one construction takes from 25 ms to 0.35 s, and single ones vary by a
// quarter on a shared machine.
const (
	minBuilds    = 3
	minBuildTime = 500 * time.Millisecond
)

// buildTimed constructs with build repeatedly, collecting each discarded
// construction before the next, and returns the last one with the median
// construction time. A traced repetition constructs once, so that its CPU
// profile weighs construction as much as one run does.
func buildTimed[T any](traced bool, build func() (T, error)) (T, time.Duration, error) {
	var v T
	var ds []float64
	var spent time.Duration
	for len(ds) < minBuilds || spent < minBuildTime {
		if traced && len(ds) == 1 {
			break
		}
		if len(ds) > 0 {
			var zero T
			v = zero
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, err
		}
		d := time.Since(t0)
		spent += d
		ds = append(ds, float64(d))
	}
	return v, time.Duration(median(ds)), nil
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quantile of sorted xs, interpolating between neighbouring samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// resetPeakRSS resets the kernel's peak-RSS mark for this process. Where
// the kernel refuses, peakRSSMiB keeps reporting the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the peak resident set (VmHWM) in MiB since the last
// resetPeakRSS.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
