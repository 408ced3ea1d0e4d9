package workload

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/vclock"
)

// refServeRequest is the request loop's reference: one request's page
// accesses, drawn and served one at a time, exactly as serveRequest did
// before requests were planned ahead.
func refServeRequest(a *App, now vclock.Time, out *requestOutcome) {
	for i := range a.touch {
		c := &a.touch[i]
		for n := c.advance(); n > 0; n-- {
			out.absorb(a.mgr.Touch(now, c.pages[a.rng.IntN(len(c.pages))]))
		}
	}
	if a.growPerRequest > 0 && a.lazyCursor < len(a.anonLazy) {
		a.growAccum += a.growPerRequest * a.load
		for a.growAccum >= 1 && a.lazyCursor < len(a.anonLazy) {
			a.growAccum--
			out.absorb(a.mgr.Touch(now, a.anonLazy[a.lazyCursor]))
			a.lazyCursor++
		}
	}
	if a.streamPerRequest > 0 && len(a.streamPages) > 0 {
		a.streamAccum += a.streamPerRequest * a.load
		for a.streamAccum >= 1 {
			a.streamAccum--
			pg := a.streamPages[a.streamCursor]
			a.streamCursor = (a.streamCursor + 1) % len(a.streamPages)
			a.mgr.FreePages([]*mm.Page{pg})
			if a.Profile.StreamIsWrites {
				out.absorb(a.mgr.TouchWrite(now, pg))
			} else {
				out.absorb(a.mgr.Touch(now, pg))
			}
		}
	}
}

// refTick is Tick's reference, with the original per-request loop.
func refTick(a *App, now vclock.Time, tick vclock.Duration) TickResult {
	if a.killed {
		return TickResult{}
	}
	a.shiftPhase(now)
	var res TickResult
	frontEnd := a.frontEndFactor()
	budget := vclock.Duration(float64(tick) * a.admitted * a.cpuShare)
	if a.cpuShare < 1 {
		wait := vclock.Duration(float64(tick) * (1 - a.cpuShare))
		for w := 0; w < a.Profile.Workers; w++ {
			off := vclock.Duration(int64(tick) * int64(w) / int64(a.Profile.Workers))
			if off+wait > tick {
				off = tick - wait
			}
			res.Stalls = append(res.Stalls, StallInterval{Start: now.Add(off), End: now.Add(off + wait), CPU: true})
		}
	}
	for w := 0; w < a.Profile.Workers; w++ {
		busy := a.carry[w]
		a.carry[w] = 0
		var tot requestOutcome
		for busy < budget {
			cpu := vclock.Duration(float64(a.jitterCPU()) * frontEnd)
			var o requestOutcome
			refServeRequest(a, now.Add(busy), &o)
			cpu += vclock.Duration(o.refaults) * a.Profile.RefaultCPUPenalty
			wall := cpu + o.memOnly + o.both + o.ioOnly
			a.latencies.Add(float64(wall))
			busy += wall
			tot.memOnly += o.memOnly
			tot.both += o.both
			tot.ioOnly += o.ioOnly
			tot.swapIns += o.swapIns
			tot.refaults += o.refaults
			tot.coldReads += o.coldReads
			a.completed++
			res.Completed++
		}
		if busy > tick {
			over := busy - tick
			if lim := vclock.Duration(maxCarryTicks) * tick; over > lim {
				over = lim
			}
			a.carry[w] = over
		}
		res.SwapIns += tot.swapIns
		res.Refaults += tot.refaults
		res.ColdReads += tot.coldReads
		res.Stalls = append(res.Stalls, a.placeStalls(now, tick, tot)...)
	}
	return res
}

// newSwapHost builds a host with a zswap backend and swap readahead over
// capacityMiB of DRAM, running the named profiles at 1/8 scale.
func newSwapHost(capacityMiB int64, names ...string) []*App {
	spec, _ := backend.DeviceByModel("C")
	mgr := mm.NewManager(mm.Config{
		CapacityBytes: capacityMiB * MiB,
		PageSize:      pageSize,
		Swap:          backend.NewZswap(backend.CodecZstd, backend.AllocZsmalloc, 0, 3),
		FS:            backend.NewFilesystem(backend.NewSSDDevice(spec, 11)),
		Policy:        mm.PolicyTMO,
		SwapReadahead: 4,
	})
	h := cgroup.NewHierarchy(mgr, 0)
	apps := make([]*App, len(names))
	for i, name := range names {
		p := MustCatalog(name).Scale(1.0 / 8)
		apps[i] = NewApp(p, h.NewGroup(nil, p.Name, cgroup.Workload, 0), mgr, uint64(100+i))
		apps[i].Start(0)
	}
	return apps
}

// sameCarries fails t unless a and b carry bit-identical touch, growth and
// stream carries, overrun debts and RNG states.
func sameCarries(t *testing.T, where string, a, b *App) {
	t.Helper()
	for i := range a.touch {
		if math.Float64bits(a.touch[i].accum) != math.Float64bits(b.touch[i].accum) {
			t.Fatalf("%s: %s touch carry %d = %v, reference %v", where, a.Profile.Name, i, a.touch[i].accum, b.touch[i].accum)
		}
	}
	if math.Float64bits(a.growAccum) != math.Float64bits(b.growAccum) ||
		math.Float64bits(a.streamAccum) != math.Float64bits(b.streamAccum) ||
		a.lazyCursor != b.lazyCursor || a.streamCursor != b.streamCursor {
		t.Fatalf("%s: %s growth/stream state differs from the reference", where, a.Profile.Name)
	}
	if !reflect.DeepEqual(a.carry, b.carry) {
		t.Fatalf("%s: %s overrun debt %v, reference %v", where, a.Profile.Name, a.carry, b.carry)
	}
	if *a.pcg != *b.pcg {
		t.Fatalf("%s: %s RNG state diverged from the reference", where, a.Profile.Name)
	}
}

// TestTickMatchesReferenceLoop: the planned Tick and the original
// one-request-at-a-time loop, on identically seeded twin hosts under memory
// pressure (swap-ins, refaults, coalesced faults, stream reads and writes,
// lazy growth), with randomized tick lengths, admission, CPU shares and load
// factors, produce identical TickResults, completions and latency quantiles,
// bit-identical carries, and the same next RNG draws. The stalls end worker
// loops mid-plan, so the rewind path runs throughout.
func TestTickMatchesReferenceLoop(t *testing.T) {
	names := []string{"web", "analytics", "ads-b", "datacenter-tax"}
	apps, refs := newSwapHost(40, names...), newSwapHost(40, names...)
	r := rand.New(rand.NewPCG(5, 9))
	ticks := []vclock.Duration{10 * vclock.Millisecond, 50 * vclock.Millisecond, 100 * vclock.Millisecond, 400 * vclock.Millisecond}
	loads := []float64{0, 0.3, 1, 1, 1, 2.5, 9}
	now := vclock.Time(0)
	stalled, faulted := 0, 0
	for step := 0; step < 600; step++ {
		tick := ticks[r.IntN(len(ticks))]
		for i := range apps {
			admitted, share := 0.2+0.8*r.Float64(), 1.0
			if r.IntN(3) == 0 {
				share = 0.3 + 0.7*r.Float64()
			}
			apps[i].SetAdmitted(admitted)
			refs[i].SetAdmitted(admitted)
			apps[i].SetCPUShare(share)
			refs[i].SetCPUShare(share)
			if r.IntN(20) == 0 {
				load := loads[r.IntN(len(loads))]
				apps[i].SetLoadFactor(load)
				refs[i].SetLoadFactor(load)
			}
			got, want := apps[i].Tick(now, tick), refTick(refs[i], now, tick)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d %s: Tick = %+v, reference %+v", step, names[i], got, want)
			}
			for _, s := range got.Stalls {
				if s.Mem || s.IO {
					stalled++
					break
				}
			}
			faulted += got.SwapIns + got.Refaults + got.ColdReads
			sameCarries(t, "step", apps[i], refs[i])
		}
		now = now.Add(tick)
	}
	if stalled < 300 || faulted < 1000 {
		t.Fatalf("only %d stalled app-ticks and %d faults; the comparison is too thin", stalled, faulted)
	}
	for i := range apps {
		if apps[i].Completed() != refs[i].Completed() {
			t.Fatalf("%s: completed %d, reference %d", names[i], apps[i].Completed(), refs[i].Completed())
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			if a, b := apps[i].RequestLatencyQuantile(q), refs[i].RequestLatencyQuantile(q); a != b {
				t.Fatalf("%s: p%v latency %v, reference %v", names[i], q*100, a, b)
			}
		}
		for k := 0; k < 4; k++ {
			if a, b := apps[i].rng.Uint64(), refs[i].rng.Uint64(); a != b {
				t.Fatalf("%s: next RNG draw %#x, reference %#x", names[i], a, b)
			}
		}
	}
}

// TestClosePlanRewindsAtEverySplit: serving the first n requests of a plan
// and closing it leaves the same pages touched, the same outcomes and CPU
// times, bit-identical carries and the same RNG state as n requests served
// one at a time by the reference loop — for every n from an unserved plan
// to a fully served one.
func TestClosePlanRewindsAtEverySplit(t *testing.T) {
	app, ref := newSwapHost(24, "web")[0], newSwapHost(24, "web")[0]
	loads := []float64{1, 4, 0, 0.5, 30}
	now := vclock.Time(0)
	var sawNone, sawPart, sawAll bool
	for round := 0; round < 600; round++ {
		if round%120 == 0 {
			app.SetLoadFactor(loads[round/120])
			ref.SetLoadFactor(loads[round/120])
		}
		app.planRequests(vclock.Second, 1)
		planned := app.plan.n
		n := round % (planned + 1)
		sawNone = sawNone || n == 0
		sawPart = sawPart || (n > 0 && n < planned)
		sawAll = sawAll || (n == planned && planned > 1)
		for k := 0; k < n; k++ {
			now = now.Add(vclock.Millisecond)
			var got, want requestOutcome
			cpu := app.serveRequest(now, &got)
			wantCPU := ref.jitterCPU()
			refServeRequest(ref, now, &want)
			if cpu != wantCPU || got != want {
				t.Fatalf("round %d request %d/%d: cpu %v outcome %+v, reference cpu %v outcome %+v",
					round, k, planned, cpu, got, wantCPU, want)
			}
		}
		app.closePlan()
		sameCarries(t, "after close", app, ref)
	}
	if !sawNone || !sawPart || !sawAll {
		t.Fatalf("split points not all covered: none %v, part %v, all %v", sawNone, sawPart, sawAll)
	}
}

// TestTickAllocFree: once its buffers have grown, a steady-state Tick —
// every page resident, nothing stalling — allocates nothing, so the plan's
// buffers are reused across workers and ticks.
func TestTickAllocFree(t *testing.T) {
	mgr, h := newEnv(512)
	p := MustCatalog("cache-a")
	app := NewApp(p, h.NewGroup(nil, p.Name, cgroup.Workload, 0), mgr, 3)
	app.Start(0)
	now := vclock.Time(0)
	tick := 100 * vclock.Millisecond
	for i := 0; i < 50; i++ {
		app.Tick(now, tick)
		now = now.Add(tick)
	}
	allocs := testing.AllocsPerRun(50, func() {
		app.Tick(now, tick)
		now = now.Add(tick)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocates %v times per call", allocs)
	}
}
