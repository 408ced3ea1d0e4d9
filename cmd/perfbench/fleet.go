package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/rollout"
	"tmo/internal/senpai"
	"tmo/internal/telemetry"
	"tmo/internal/tsdb"
	"tmo/internal/twin"
	"tmo/internal/vclock"
)

const (
	fleetHosts  = 100_000
	fleetScale  = 0.3
	fleetWindow = 30 * vclock.Second
)

// fleetWorkers bounds every goroutine pool of the fleet workload by the
// host's CPUs, at most two.
func fleetWorkers() int { return min(runtime.NumCPU(), 2) }

// fleetSpecs is the campaign population: two device classes in pair
// alternation, each running the app its calibration representative ran.
func fleetSpecs(seed uint64) []fleet.Spec {
	specs := make([]fleet.Spec, fleetHosts)
	for i := range specs {
		app, dev := "web", "C"
		if i%4 >= 2 {
			app, dev = "cache-a", "F"
		}
		specs[i] = fleet.Spec{App: app, Device: dev, Mode: core.ModeZswap, Scale: fleetScale, Seed: seed + uint64(i)*131}
	}
	return specs
}

// runFleetTwin is one campaign: calibrate the twins, gate them against
// held-out full runs, then race a safe and a hot candidate over 100k hosts
// with the observability plane on.
func runFleetTwin(seed uint64, tr *tracer) (measurement, error) {
	var m measurement
	const warm, settle, measure, replicas = 2, 2, 4, 2

	baseline := senpai.ConfigA()
	baseline.ReclaimRatio = 0
	safe := senpai.ConfigA()
	safe.ReclaimRatio = 0.005
	hot := safe
	hot.ReclaimRatio *= 12
	hot.MemPressureThreshold *= 50
	hot.IOPressureThreshold *= 10
	hot.MaxProbeFrac *= 5
	calSpecs := []fleet.Spec{
		{App: "web", Device: "C", Scale: fleetScale},
		{App: "cache-a", Device: "F", Scale: fleetScale},
	}
	modes := []core.Mode{core.ModeZswap}

	t0 := time.Now()
	span := tr.begin("twin.calibrate")
	coeffs := twin.Calibrate(twin.CalibrateConfig{
		Specs: calSpecs, Modes: modes, Baseline: baseline,
		Probes: append(twin.DefaultProbes(baseline), safe, hot),
		Window: fleetWindow, WarmWindows: warm, SettleWindows: settle, MeasureWindows: measure,
		Replicas: replicas, Workers: fleetWorkers(), Seed: seed + 77,
	})
	tr.end(span)

	holdout := senpai.ConfigA()
	holdout.ReclaimRatio *= 20
	span = tr.begin("twin.fidelity_gate")
	fid := twin.CheckFidelity(coeffs, twin.FidelityConfig{
		Specs: calSpecs, Modes: modes, Baseline: baseline,
		Probes: []senpai.Config{safe, holdout},
		Window: fleetWindow, WarmWindows: warm, SettleWindows: settle, MeasureWindows: measure,
		Replicas: replicas, Seed: seed + 501,
	})
	tr.end(span)
	if !fid.Pass() {
		return m, fmt.Errorf("fleet-twin: fidelity gate failed: %v", fid.Failures())
	}
	beforeSetup := time.Since(t0)

	type campaign struct {
		db  *tsdb.DB
		ctl *rollout.Controller
	}
	c, setup, err := buildTimed(tr != nil, func() (campaign, error) {
		db := tsdb.New(tsdb.Config{})
		ctl := rollout.New(rollout.Config{
			Hosts:    fleetSpecs(seed + 5000),
			Baseline: rollout.Policy{Name: "baseline", Mode: core.ModeZswap, Config: baseline},
			Candidates: []rollout.Policy{
				{Name: "safe", Mode: core.ModeZswap, Config: safe},
				{Name: "hot", Mode: core.ModeZswap, Config: hot},
			},
			Plan: []rollout.Stage{
				{Name: "canary", Frac: 0.05, Bake: 6},
				{Name: "fleet", Frac: 0.9, Bake: 4},
			},
			Guardrails: rollout.Guardrails{
				MaxMemPressure: 0.0012, MaxRPSDip: 0.25, MaxOOMKills: 0,
				SwapUtilizationLatch: 0.95, MaxSwapLatched: 0,
			},
			Window: fleetWindow, WarmWindows: 2, Workers: fleetWorkers(), Seed: seed + 13,
			Twin: &rollout.TwinConfig{Coeffs: coeffs},
			Obs:  &rollout.ObsConfig{DB: db},
		})
		return campaign{db, ctl}, nil
	})
	if err != nil {
		return m, err
	}
	m.setup = setup
	db, ctl := c.db, c.ctl

	// The observability plane scrapes the controller's registry once per
	// barrier, so a gauge on it marks the end of every window: the fleet's
	// simulated step. Its value is the window count, so the series it adds
	// to the TSDB is deterministic.
	var last time.Time
	var stepSpan int
	running := false
	ctl.Telemetry().GaugeFunc("perfbench.windows", func() float64 {
		if running {
			now := time.Now()
			m.stepUs = append(m.stepUs, float64(now.Sub(last).Nanoseconds())/1e3)
			last = now
			tr.end(stepSpan)
			stepSpan = tr.begin("rollout.window")
		}
		return float64(len(m.stepUs))
	})
	span = tr.begin("rollout.run")
	stepSpan = tr.begin("rollout.window")
	t3 := time.Now()
	last, running = t3, true
	res := ctl.Run()
	running = false
	tr.end(stepSpan)
	tr.end(span)
	runWall := time.Since(t3)
	m.run = beforeSetup + runWall
	m.simSeconds = float64(res.FullHosts+res.TwinHosts) * res.Duration.Seconds()
	m.simWall = runWall

	span = tr.begin("tsdb.export")
	h := sha256.New()
	if err := db.WriteJSONL(h); err != nil {
		return m, err
	}
	tr.end(span)

	if err := checkCampaign(res); err != nil {
		return m, err
	}
	stage, promoted, err := finalStage(res)
	if err != nil {
		return m, err
	}
	m.outcome = outcome{
		savedPct: 100 * promoted.SavingsFrac,
		psiPct:   100 * promoted.Stats.MemPressure,
		rps:      meanRPS(db, res.Promoted, stage),
	}
	reg := ctl.Telemetry().Snapshot()
	m.counts = map[string]float64{
		"twin.hosts":            float64(res.TwinHosts),
		"rollout.host_windows":  float64(res.FullHosts+res.TwinHosts) * float64(res.Duration/res.Window),
		"rollout.policy_pushes": sum(reg, "rollout.policy_pushes"),
		"tsdb.series":           float64(db.NumSeries()),
		"tsdb.samples":          float64(db.NumSamples()),
		"slo.burn_alerts":       sum(reg, "slo.burn_alerts"),
		"sim.ticks":             float64(len(m.stepUs)),
	}
	m.fingerprint = fleetFingerprint(m.outcome, res, coeffs, h.Sum(nil))
	return m, nil
}

// checkCampaign is the fleet-twin shape predicate: the campaign completes,
// promotes "safe", and drops "hot".
func checkCampaign(r rollout.Result) error {
	if !r.Completed() || r.Promoted != "safe" {
		return fmt.Errorf("fleet-twin: campaign %v promoted %q, want completed promoting \"safe\"", r.State, r.Promoted)
	}
	for _, c := range r.Candidates {
		if c.Policy == "hot" && !c.Dropped {
			return fmt.Errorf("fleet-twin: candidate \"hot\" survived, want dropped")
		}
	}
	return nil
}

// finalStage returns the last stage's name and the promoted candidate's
// report for it.
func finalStage(r rollout.Result) (string, rollout.CandidateStageReport, error) {
	if len(r.Stages) > 0 {
		last := r.Stages[len(r.Stages)-1]
		for _, c := range last.Candidates {
			if c.Policy == r.Promoted {
				return last.Stage.Name, c, nil
			}
		}
	}
	return "", rollout.CandidateStageReport{}, fmt.Errorf("fleet-twin: no final-stage report for %q", r.Promoted)
}

// meanRPS is the mean served requests/s of the promoted cohort's
// full-fidelity anchors over the final stage, read from the TSDB's
// per-host vitals.
func meanRPS(db *tsdb.DB, policy, stage string) float64 {
	var total float64
	var n int
	for _, s := range db.Select("rollout.host.rps",
		telemetry.Label{Key: "candidate", Value: policy},
		telemetry.Label{Key: "stage", Value: stage}) {
		for _, p := range s.Points {
			total += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// fleetFingerprint hashes the campaign's modelled outcome: the decision
// log, every stage verdict, the calibration artifact and the TSDB export.
func fleetFingerprint(o outcome, r rollout.Result, cs *twin.CoefficientSet, export []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%.17g %.17g %.17g %v %q %d %d\n", o.savedPct, o.psiPct, o.rps, r.State, r.Promoted, r.FullHosts, r.TwinHosts)
	for _, e := range r.Events {
		fmt.Fprintf(h, "%v\n", e)
	}
	fmt.Fprintf(h, "%+v\n", r.Stages)
	if err := cs.WriteJSON(h); err != nil {
		fmt.Fprintf(h, "coeffs: %v\n", err)
	}
	fmt.Fprintf(h, "%x", export)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
