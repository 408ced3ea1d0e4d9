package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"tmo/cmd/internal/cliutil"
	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/psi"
	"tmo/internal/senpai"
	"tmo/internal/sim"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
	wl "tmo/internal/workload"
)

// hostSpec is one single-host workload: the apps, how the host is built
// (through the mode and tier-spec strings the CLIs accept), and how long it
// warms up and is measured in virtual time.
type hostSpec struct {
	apps  []string
	mode  string
	tiers string
	// admit, when positive, is the admission threshold (MinCompressRatio)
	// of every tier in tiers; the tier-spec syntax has no field for it.
	// The SSD tier admits every page whatever its threshold.
	admit  float64
	device string
	// wbDepth, when positive, is the SSD writeback queue's depth.
	wbDepth int
	// capacity is host DRAM as a multiple of the apps' summed footprint.
	capacity float64
	// cxl sizes the far node as a fraction of DRAM (cxl mode only).
	cxl float64
	// senpai is the controller configuration; nil runs without Senpai.
	senpai func() senpai.Config
	// clamp, when positive, sets each app's memory.max to this fraction
	// of its footprint halfway through the warm-up.
	clamp   float64
	warm    vclock.Duration
	measure vclock.Duration
	// check is the workload's shape predicate over the finished run.
	check func(h *hostRun) error
}

// hostRun is one repetition's live host.
type hostRun struct {
	sys       *core.System
	apps      []*wl.App
	footprint int64
	// start and end are the telemetry snapshots bracketing the measured
	// phase.
	start, end telemetry.Snapshot
	outcome    outcome
}

// spanController wraps a sim.Controller so each of its ticks is a span.
type spanController struct {
	sim.Controller
	tr   *tracer
	name string
}

func (c spanController) Tick(now vclock.Time) {
	i := c.tr.begin(c.name)
	c.Controller.Tick(now)
	c.tr.end(i)
}

// build constructs the host: core.New plus one AddProfile per app. Under
// tracing, Senpai is built disabled and re-attached behind a span wrapper,
// which must leave the simulated outcome unchanged.
func (s hostSpec) build(seed uint64, tr *tracer) (*hostRun, error) {
	mode, err := core.ParseMode(s.mode)
	if err != nil {
		return nil, err
	}
	var profiles []wl.Profile
	var footprint int64
	for _, name := range s.apps {
		p, err := wl.Catalog(name)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
		footprint += p.FootprintBytes
	}
	opts := core.Options{
		Mode:          mode,
		CapacityBytes: int64(s.capacity * float64(footprint)),
		DeviceModel:   s.device,
		DisableSenpai: s.senpai == nil || tr != nil,
		Writeback:     backend.WritebackConfig{Depth: s.wbDepth},
		Seed:          seed,
	}
	if s.tiers != "" {
		if opts.Tiers, err = cliutil.ParseTierSpec(s.tiers); err != nil {
			return nil, err
		}
		for i := range opts.Tiers {
			opts.Tiers[i].MinCompressRatio = s.admit
		}
	}
	if s.cxl > 0 {
		opts.CXLBytes = int64(s.cxl * float64(opts.CapacityBytes))
	}
	var cfg senpai.Config
	if s.senpai != nil {
		cfg = s.senpai()
		opts.Senpai = &cfg
	}

	span := tr.begin("core.new")
	sys := core.New(opts)
	var ctl *senpai.Controller
	if s.senpai != nil && tr != nil {
		ctl = senpai.New(cfg, sys.Server.Swap())
		ctl.SetTrace(sys.Trace)
		ctl.SetRecorder(sys.Tracer)
		ctl.EnableTelemetry(sys.Telemetry)
		sys.Server.AddController(spanController{ctl, tr, "senpai.tick"})
	}
	h := &hostRun{sys: sys, footprint: footprint}
	for _, p := range profiles {
		app := sys.AddProfile(p, cgroup.Workload)
		if ctl != nil {
			ctl.AddTarget(app.Group)
		}
		h.apps = append(h.apps, app)
	}
	tr.end(span)
	return h, nil
}

// run is one repetition: build (timed as set-up), warm up, then the
// measured phase with every tick timed through the server hooks.
func (s hostSpec) run(seed uint64, tr *tracer) (measurement, error) {
	var m measurement
	h, setup, err := buildTimed(tr != nil, func() (*hostRun, error) { return s.build(seed, tr) })
	if err != nil {
		return m, err
	}
	m.setup = setup
	sys := h.sys

	if s.clamp > 0 {
		sys.Run(s.warm / 2)
		for _, a := range h.apps {
			a.Group.SetMemoryMax(sys.Server.Now(), int64(s.clamp*float64(a.Profile.FootprintBytes)))
		}
		sys.Run(s.warm - s.warm/2)
	} else {
		sys.Run(s.warm)
	}

	ticks := int(s.measure / sys.Server.TickLen())
	m.stepUs = make([]float64, 0, ticks)
	// The hooks go in after warm-up, so they time only the measured ticks.
	var tickStart time.Duration
	var span int
	sys.Server.OnTickStart(func(vclock.Time) {
		span = tr.begin("sim.tick")
		tickStart = threadCPU()
	})
	sys.Server.OnTick(func(vclock.Time) {
		m.stepUs = append(m.stepUs, float64((threadCPU()-tickStart).Nanoseconds())/1e3)
		tr.end(span)
	})
	// A tick is timed in the simulating thread's CPU time, which hypervisor
	// steal and preemption by other tenants do not inflate the way they
	// inflate its wall time; the goroutine keeps its OS thread meanwhile.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	root := sys.Server.Hierarchy().Root().PSI()
	root.Sync(sys.Server.Now())
	psi0 := root.Total(psi.Memory, psi.Some)
	var done0 int64
	for _, a := range h.apps {
		done0 += a.Completed()
	}
	h.start = sys.TelemetrySnapshot()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	const sample = 10 * vclock.Second
	var netSum float64
	steps := int(s.measure / sample)
	for i := 0; i < steps; i++ {
		sys.Run(sample)
		netSum += float64(sys.NetResidentBytes())
	}
	m.run = time.Since(t1)
	runtime.ReadMemStats(&ms1)

	h.end = sys.TelemetrySnapshot()
	root.Sync(sys.Server.Now())
	var done1 int64
	for _, a := range h.apps {
		done1 += a.Completed()
	}
	measured := vclock.Duration(steps) * sample
	h.outcome = outcome{
		savedPct: 100 * (1 - netSum/float64(steps)/float64(h.footprint)),
		psiPct:   100 * psi.WindowedPressure(psi0, root.Total(psi.Memory, psi.Some), measured),
		rps:      float64(done1-done0) / measured.Seconds(),
	}
	m.outcome = h.outcome
	m.simSeconds = measured.Seconds()
	m.simWall = m.run
	m.counts = h.counts(done1-done0, len(m.stepUs), ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc)
	m.fingerprint = fingerprint(h.outcome, h.end)
	return m, s.check(h)
}

// counts derives the per-layer counters of the measured phase from the two
// telemetry snapshots.
func (h *hostRun) counts(requests int64, ticks int, mallocs, allocBytes uint64) map[string]float64 {
	d := func(name string) float64 { return sum(h.end, name) - sum(h.start, name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	scanned := d("mm.pages_scanned")
	promos := d("place.promotions")
	return map[string]float64{
		"workload.requests":              float64(requests),
		"mm.pages_scanned":               scanned,
		"mm.reclaim_yield":               ratio(d("mm.swap_outs")+d("mm.file_evictions"), scanned),
		"mm.swap_ins":                    d("mm.swap_ins"),
		"mm.refaults":                    d("mm.refaults"),
		"mm.direct_reclaims":             d("mm.direct_reclaims"),
		"mm.fault_p99_us":                deltaQuantile(h.start, h.end, "mm.fault_latency_us", 0.99),
		"backend.ssd_writes":             d("backend.ssd.writes"),
		"backend.ssd_written_mib":        d("backend.ssd.written_bytes") / (1 << 20),
		"backend.chain_demotions":        d("backend.tier.demotions"),
		"backend.chain_promotions":       d("backend.chain.promotions"),
		"backend.chain_admit_skips":      d("backend.chain.admit_skips"),
		"backend.wb_backpressure_stalls": d("backend.wb.backpressure_stalls"),
		"senpai.runs":                    d("senpai.runs"),
		"senpai.reclaim_yield":           ratio(d("senpai.reclaimed_bytes"), d("senpai.requested_bytes")),
		"place.promotions":               promos,
		"place.promo_success_ratio":      ratio(promos, promos+d("place.promo_aborts")),
		"psi.stall_integrations":         d("psi.stall_integrations"),
		"sim.ticks":                      float64(ticks),
		"sim.allocs_per_tick":            ratio(float64(mallocs), float64(ticks)),
		"sim.alloc_bytes_per_tick":       ratio(float64(allocBytes), float64(ticks)),
	}
}

// sum totals a metric's value over every label set in a snapshot.
func sum(s telemetry.Snapshot, name string) float64 {
	var v float64
	for _, m := range s.Metrics {
		if m.Name == name {
			v += m.Value
		}
	}
	return v
}

// deltaQuantile is the q-th quantile of the observations a histogram
// gained between two snapshots.
func deltaQuantile(start, end telemetry.Snapshot, name string, q float64) float64 {
	var before map[float64]int64
	for _, m := range start.Metrics {
		if m.Name == name && len(m.Labels) == 0 {
			before = map[float64]int64{}
			for _, b := range m.Buckets {
				before[b.UpperBound] = b.Count
			}
		}
	}
	for _, m := range end.Metrics {
		if m.Name != name || len(m.Labels) != 0 {
			continue
		}
		d := m
		d.Buckets = nil
		d.Count = 0
		for _, b := range m.Buckets {
			b.Count -= before[b.UpperBound]
			d.Buckets = append(d.Buckets, b)
			d.Count += b.Count
		}
		return d.Quantile(q)
	}
	return 0
}

// fingerprint hashes the modelled outcome and every deterministic
// instrument of the final telemetry snapshot. sim.tick_wall_us is the
// registry's one wall-clock instrument and is left out.
func fingerprint(o outcome, s telemetry.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.17g %.17g %.17g\n", o.savedPct, o.psiPct, o.rps)
	for _, m := range s.Metrics {
		if m.Name == "sim.tick_wall_us" {
			continue
		}
		fmt.Fprintf(&b, "%s %v %.17g %d %.17g\n", m.Name, m.Labels, m.Value, m.Count, m.Sum)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}
