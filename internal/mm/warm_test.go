package mm

import (
	"reflect"
	"testing"

	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// TestWarmIsReadOnly: Warm over pages in every state — never populated,
// resident on each LRU list with and without the referenced bit, offloaded
// in swap clusters, evicted file cache, and duplicates — leaves every page
// byte, every LRU list head and the telemetry snapshot as they were.
func TestWarmIsReadOnly(t *testing.T) {
	m := NewManager(Config{
		CapacityBytes: 64 * pageSize,
		PageSize:      pageSize,
		Swap:          newZswap(),
		FS:            newTestFS(99),
		Policy:        PolicyTMO,
		SwapReadahead: 4,
	})
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg)
	g := m.NewGroup("app", nil)
	anon := m.NewPages(g, Anon, 96, 2)
	file := m.NewPages(g, File, 48, 2)
	now := vclock.Time(0)
	for round := 0; round < 4; round++ {
		for i, p := range anon[:80] {
			if i%(round+2) == 0 {
				now = now.Add(vclock.Millisecond)
				m.Touch(now, p)
			}
		}
		for _, p := range file[:40] {
			now = now.Add(vclock.Millisecond)
			m.Touch(now, p)
		}
		m.ProactiveReclaim(now, g, 8*pageSize)
	}
	all := append(append([]*Page{}, anon...), file...)
	states := map[PageState]int{}
	activation := 0
	for _, p := range all {
		states[p.state]++
		if p.state == Resident && p.referenced && !p.active {
			activation++
		}
	}
	if len(states) != 4 || activation == 0 {
		t.Fatalf("population too thin: states %v, %d pages a touch would activate", states, activation)
	}

	pages := append(all, all[:16]...)
	before := make([]Page, len(all))
	for i, p := range all {
		before[i] = *p
	}
	lists := g.lists
	snap := reg.Snapshot()

	Warm(pages)

	for i, p := range all {
		if *p != before[i] {
			t.Fatalf("page %d changed: %+v, was %+v", i, *p, before[i])
		}
	}
	if g.lists != lists {
		t.Fatalf("LRU lists changed")
	}
	if !reflect.DeepEqual(reg.Snapshot(), snap) {
		t.Fatalf("telemetry changed")
	}
}
