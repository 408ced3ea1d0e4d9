package workload

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/vclock"
)

// refAdvance is the request loop's original per-class touch count: add the
// carry, then take one touch per whole unit with a decrement loop.
func refAdvance(accum *float64, rate, load float64) int {
	*accum += rate * load
	n := 0
	for *accum >= 1 {
		*accum--
		n++
	}
	return n
}

// TestAdvanceMatchesDecrementLoop: the closed-form count gives the same
// per-request touches and a bit-identical residual carry as the decrement
// loop, for random rates and loads with mid-run load changes.
func TestAdvanceMatchesDecrementLoop(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	randLoad := func() float64 {
		switch r.IntN(6) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return float64(1 + r.IntN(8))
		case 3:
			return maxLoadFactor * r.Float64()
		default:
			return 4 * r.Float64()
		}
	}
	for trial := 0; trial < 500; trial++ {
		// Rates from far below one touch per request to several per
		// request, log-uniform.
		rate := math.Exp(r.Float64()*16 - 14)
		load := randLoad()
		c := touchClass{rate: rate, step: rate * load}
		ref := 0.0
		for req := 0; req < 2000; req++ {
			if r.IntN(200) == 0 {
				load = randLoad()
				c.step = rate * load
			}
			want := refAdvance(&ref, rate, load)
			if got := c.advance(); got != want {
				t.Fatalf("trial %d req %d (rate %g load %g): %d touches, want %d", trial, req, rate, load, got, want)
			}
			if math.Float64bits(c.accum) != math.Float64bits(ref) {
				t.Fatalf("trial %d req %d (rate %g load %g): carry %v, want %v", trial, req, rate, load, c.accum, ref)
			}
		}
	}
}

// pagePos locates a page in an app's class table.
type pagePos struct{ class, idx int }

// TestServeRequestMatchesReferenceLoop: an App's touched-page sequence over
// many requests, with load changes through SetLoadFactor, matches the
// original per-class loop run on an identically seeded twin — same pages in
// the same requests, same carries, and the RNG streams still aligned.
func TestServeRequestMatchesReferenceLoop(t *testing.T) {
	p := MustCatalog("feed").Scale(1.0 / 8)
	p.AnonGrowth, p.StreamFileBytesPerSec = false, 0 // class touches only
	build := func() *App {
		mgr, h := newEnv(512)
		g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
		app := NewApp(p, g, mgr, 42)
		app.Start(0)
		return app
	}
	app, ref := build(), build()

	// The original per-class rates, computed as NewApp always has.
	totalPages := p.FootprintBytes / pageSize
	rates := make([]float64, len(p.Classes))
	for i, c := range p.Classes {
		if n := int(float64(totalPages) * c.Frac); n > 0 && c.Period > 0 {
			rates[i] = float64(n) / (c.Period.Seconds() * p.NominalRPS())
		}
	}
	accum := make([]float64, len(p.Classes))
	// Which class each touch-table entry serves, by page-slice identity.
	tableClass := make([]int, len(app.touch))
	for k, c := range app.touch {
		tableClass[k] = slices.IndexFunc(app.classPages, func(pages []*mm.Page) bool {
			return len(pages) > 0 && &pages[0] == &c.pages[0]
		})
	}
	type located struct {
		pg *mm.Page
		at pagePos
	}
	var all []located
	for i, pages := range app.classPages {
		for j, pg := range pages {
			all = append(all, located{pg, pagePos{i, j}})
		}
	}

	loads := []float64{1, 6.5, 0, 0.25, 40, 2}
	touches := 0
	for req := 0; req < 6000; req++ {
		if req%1000 == 0 {
			load := loads[req/1000]
			app.SetLoadFactor(load)
			ref.SetLoadFactor(load)
		}
		now := vclock.Time(req+1) * vclock.Time(vclock.Millisecond)

		// Reference: the request's jitterCPU draw, then the original loop
		// over every class.
		ref.rng.Float64()
		var want []pagePos
		for i := range ref.classPages {
			if rates[i] == 0 || len(ref.classPages[i]) == 0 {
				continue
			}
			for n := refAdvance(&accum[i], rates[i], ref.load); n > 0; n-- {
				j := ref.rng.IntN(len(ref.classPages[i]))
				ref.mgr.Touch(now, ref.classPages[i][j])
				want = append(want, pagePos{i, j})
			}
		}

		app.planRequests(1, 1) // a one-request plan
		app.serveRequest(now, &requestOutcome{})
		app.closePlan()
		var got []pagePos
		for _, l := range all {
			if last, ok := l.pg.LastTouch(); ok && last == now {
				got = append(got, l.at)
			}
		}
		cmpPos := func(a, b pagePos) int { return (a.class-b.class)*1<<32 + a.idx - b.idx }
		slices.SortFunc(want, cmpPos)
		want = slices.Compact(want)
		slices.SortFunc(got, cmpPos)
		if !slices.Equal(got, want) {
			t.Fatalf("request %d touched %v, reference touched %v", req, got, want)
		}
		touches += len(want)
		for k, c := range app.touch {
			if math.Float64bits(c.accum) != math.Float64bits(accum[tableClass[k]]) {
				t.Fatalf("request %d class %d: carry %v, reference %v", req, tableClass[k], c.accum, accum[tableClass[k]])
			}
		}
	}
	if touches < 1000 {
		t.Fatalf("only %d touches over the run; the comparison is too thin", touches)
	}
	if a, b := app.rng.Uint64(), ref.rng.Uint64(); a != b {
		t.Fatalf("RNG streams diverged: %#x vs %#x", a, b)
	}
}

// TestNonFiniteLoadFactorClamps: SetLoadFactor clamps NaN and negative
// factors to zero and +Inf to maxLoadFactor, so a Tick still finishes (an
// infinite carry used to spin the request loop forever).
func TestNonFiniteLoadFactorClamps(t *testing.T) {
	mgr, h := newEnv(512)
	p := MustCatalog("cache-a")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 5)
	app.Start(0)
	now := vclock.Time(0)
	for _, tc := range []struct{ in, want float64 }{
		{math.Inf(1), maxLoadFactor},
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{1e300, maxLoadFactor},
	} {
		app.SetLoadFactor(tc.in)
		if got := app.LoadFactor(); got != tc.want {
			t.Fatalf("SetLoadFactor(%v): LoadFactor() = %v, want %v", tc.in, got, tc.want)
		}
		done := make(chan TickResult, 1)
		go func(now vclock.Time) { done <- app.Tick(now, 100*vclock.Millisecond) }(now)
		select {
		case res := <-done:
			if res.Completed == 0 {
				t.Fatalf("SetLoadFactor(%v): tick served no requests", tc.in)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("SetLoadFactor(%v): Tick did not terminate", tc.in)
		}
		now = now.Add(100 * vclock.Millisecond)
	}
}
