package workload

import (
	"testing"

	"tmo/internal/cgroup"
	"tmo/internal/vclock"
)

// BenchmarkAppTick measures the request loop: one 100ms tick of feed at full
// scale on DRAM twice its footprint, as in the host-steady benchmark. Every
// touch is a resident hit, and the touches spread over 48k pages whose Page
// structs (6 MiB) exceed L2, so page cache misses weigh as they do there.
func BenchmarkAppTick(b *testing.B) {
	p := MustCatalog("feed")
	mgr, h := newEnv(2 * p.FootprintBytes / MiB)
	app := NewApp(p, h.NewGroup(nil, p.Name, cgroup.Workload, 0), mgr, 1)
	app.Start(0)
	now, tick := vclock.Time(0), 100*vclock.Millisecond
	for i := 0; i < 50; i++ { // fill the latency reservoir and the plan buffers
		app.Tick(now, tick)
		now = now.Add(tick)
	}
	start := app.Completed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Tick(now, tick)
		now = now.Add(tick)
	}
	b.ReportMetric(float64(app.Completed()-start)/float64(b.N), "req/op")
}
