package mm

import (
	"fmt"

	"tmo/internal/backend"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// ReclaimPolicy selects between the historical kernel reclaim behaviour and
// the TMO-modified algorithm of §3.4.
type ReclaimPolicy int

// The reclaim policies.
const (
	// PolicyTMO reclaims file cache exclusively until refaults occur, then
	// balances file and anonymous reclaim by observed paging cost.
	PolicyTMO ReclaimPolicy = iota
	// PolicyLegacy skews heavily toward file cache and uses swap only as
	// an emergency overflow once the file cache is nearly gone.
	PolicyLegacy
	// PolicyOracle evicts the globally coldest pages by exact last-access
	// time — unimplementable in a real kernel (it requires tracking every
	// access), but the upper bound that the LRU approximation is measured
	// against (§5.3 discusses the cost of cold-page detection).
	PolicyOracle
)

// String names the policy.
func (p ReclaimPolicy) String() string {
	switch p {
	case PolicyTMO:
		return "tmo"
	case PolicyLegacy:
		return "legacy"
	case PolicyOracle:
		return "oracle"
	}
	return "invalid"
}

// Config parameterises a Manager.
type Config struct {
	// CapacityBytes is host DRAM size.
	CapacityBytes int64
	// PageSize in bytes; 4096 unless a test overrides it.
	PageSize int64
	// Swap is the offload backend for anonymous pages; nil runs file-only
	// mode (§5.1's first deployment phase).
	Swap backend.SwapBackend
	// Far is the byte-addressable far-memory node; when set, reclaim
	// demotes cold anonymous pages to it ahead of swap (the swap tiers
	// become the third rung) and touches of far pages pay the link latency
	// without faulting. Nil disables the placement tier.
	Far *backend.CXLNode
	// FS is the filesystem used to (re)load file pages. Required.
	FS *backend.Filesystem
	// Policy selects the reclaim algorithm.
	Policy ReclaimPolicy
	// ScanCPUPerPage is the CPU cost of examining one LRU page during
	// reclaim; it feeds direct-reclaim stall time. Defaults to 500ns.
	ScanCPUPerPage vclock.Duration
	// FaultOverhead is the kernel-side cost of taking any major fault
	// (trap entry, page allocation, LRU insertion, page-table fixup) paid
	// on top of the backend latency. Defaults to 20us.
	FaultOverhead vclock.Duration
	// SwapReadahead, when positive, loads up to that many cluster
	// neighbours alongside every swap-in, mirroring the kernel's swap
	// readahead over adjacent swap slots (pages evicted together are
	// adjacent). Readahead pages arrive unreferenced on the inactive
	// list, so mistaken readahead is cheap to re-evict. Zero disables.
	SwapReadahead int
}

// Manager simulates the host kernel's memory-management subsystem: a fixed
// DRAM capacity, a tree of memory control groups, and the reclaim machinery.
type Manager struct {
	cfg  Config
	root *Group

	// swapExhausted latches when the swap backend reports ErrFull; anon
	// scanning stops until space frees up.
	swapExhausted bool

	// Swap-cluster bookkeeping for readahead: consecutive swap-outs share
	// a cluster (adjacent slots). Each live cluster is an intrusive list
	// threaded through its pages; curCluster receives new swap-outs until
	// curClusterSlots slots have been assigned. Emptied clusters are
	// recycled through freeClusters so steady-state swap traffic performs
	// no cluster allocations.
	curCluster      *swapCluster
	curClusterSlots int
	freeClusters    []*swapCluster

	// scratchGroups is reclaim's reusable subtree enumeration buffer.
	// Reclaim never nests (shrinking a group cannot trigger another
	// reclaim), so a single buffer per manager is safe.
	scratchGroups []*Group
	// scratchPages is the oracle's reusable coldest-first victim buffer,
	// under the same no-nesting argument.
	scratchPages []*Page

	// pageSlab is the unused tail of the slab NewPages carves small
	// requests from (see pageSlabLen).
	pageSlab []Page

	// Batched swap-in scratch: the fault path gathers the demand page's
	// handle plus its eligible cluster neighbours here and submits them as
	// one LoadBatch. Reused across faults so the batched path allocates
	// nothing in steady state.
	batchHandles []backend.Handle
	batchPages   []*Page

	// Batched swap-out scratch: reclaim gathers up to a swap cluster of
	// anon victims, then flushes them as one StoreBatch. Fixed arrays keep
	// the reclaim loop allocation-free.
	storeVictims  [swapClusterSize]*Page
	storeReqs     [swapClusterSize]backend.StoreReq
	storeRes      [swapClusterSize]backend.StoreResult
	nStoreVictims int

	// readaheadIn counts pages loaded by readahead rather than faults.
	readaheadIn int64

	// farDemotions/farPromotions count placement-tier migrations; the
	// placement loop's telemetry reads them.
	farDemotions  int64
	farPromotions int64

	// farInterleave, when positive, statically places that fraction of
	// newly resident anonymous pages on the far node (deterministic
	// accumulator) — the hardware-interleaving baseline the placement loop
	// is measured against. interleaveAcc carries the fractional credit.
	farInterleave float64
	interleaveAcc float64

	// oomEvents counts charges that proceeded even though reclaim could
	// not make room — situations where a real kernel would OOM-kill.
	oomEvents int64

	// tel, when set, publishes event counters and fault latencies into the
	// host's telemetry registry; trace reports refaults and swap rejections
	// to the decision log. Both are optional.
	tel   *counters
	trace *trace.Log
}

// swapClusterSize matches the kernel's default readahead cluster (2^3).
const swapClusterSize = 8

// NewManager returns a Manager for a host with the given configuration.
func NewManager(cfg Config) *Manager {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.ScanCPUPerPage <= 0 {
		cfg.ScanCPUPerPage = vclock.Duration(1) // 1us per 2 pages is close enough at micro resolution
	}
	if cfg.FaultOverhead <= 0 {
		cfg.FaultOverhead = 20 * vclock.Microsecond
	}
	if cfg.CapacityBytes <= 0 {
		panic("mm: capacity must be positive")
	}
	if cfg.FS == nil {
		panic("mm: filesystem backend is required")
	}
	m := &Manager{cfg: cfg}
	m.root = &Group{name: "/", mgr: m}
	return m
}

// ReadaheadIn returns how many pages swap readahead has brought in.
func (m *Manager) ReadaheadIn() int64 { return m.readaheadIn }

// FarDemotions returns cumulative pages demoted to the far node.
func (m *Manager) FarDemotions() int64 { return m.farDemotions }

// FarPromotions returns cumulative pages promoted back to local DRAM.
func (m *Manager) FarPromotions() int64 { return m.farPromotions }

// SetFarInterleave statically places frac of newly resident anonymous pages
// on the far node — the interleaving baseline. Zero restores demand-local
// placement.
func (m *Manager) SetFarInterleave(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	m.farInterleave = frac
}

// noteSwapOut records an offloaded page into the current swap cluster.
func (m *Manager) noteSwapOut(p *Page) {
	if m.cfg.SwapReadahead <= 0 {
		return
	}
	if m.curCluster == nil || m.curClusterSlots >= swapClusterSize {
		if n := len(m.freeClusters); n > 0 {
			m.curCluster = m.freeClusters[n-1]
			m.freeClusters = m.freeClusters[:n-1]
		} else {
			m.curCluster = &swapCluster{}
		}
		m.curClusterSlots = 0
	}
	m.curCluster.pushTail(p)
	m.curClusterSlots++
}

// dropFromCluster removes a page from its swap cluster index. Keyed on the
// page's own membership rather than the readahead configuration, so pages
// always leave their cluster no matter how they stop being offloaded
// (fault, readahead, or FreePages) — a stale cluster entry would hold a
// dangling page pointer.
func (m *Manager) dropFromCluster(p *Page) {
	cl := p.cluster
	if cl == nil {
		return
	}
	cl.remove(p)
	if cl.n == 0 {
		if cl == m.curCluster {
			// The fill cluster emptied in place (every member faulted or
			// was freed). Reset its slot count so the next swap-out starts
			// a fresh cluster in the same object instead of rotating to a
			// new allocation and leaking this one.
			m.curClusterSlots = 0
		} else {
			m.freeClusters = append(m.freeClusters, cl)
		}
	}
}

// gatherReadahead selects up to SwapReadahead still-offloaded members of the
// faulting page's cluster cl (the page itself has already left it) and
// appends their handles to the pending batch in m.batchHandles/m.batchPages.
// The neighbours ride the faulting page's cluster IO: they are inserted
// unreferenced at the inactive head immediately — the batch is one device
// submission, so their cost is the batch's, already charged to the faulting
// task — with pendingUntil stamped by the caller once the batch latency is
// known. Readahead is opportunistic: a neighbour whose charge would push any
// group in its ancestry over its effective memory.max is skipped rather than
// charged over the limit — mistaken readahead must never cause reclaim or
// OOM pressure of its own.
func (m *Manager) gatherReadahead(cl *swapCluster) {
	if m.cfg.SwapReadahead <= 0 || cl == nil {
		return
	}
	loaded := 0
	for q := cl.head; q != nil && loaded < m.cfg.SwapReadahead; {
		next := q.clusterNext
		// The gather runs before the demand page itself is charged, so a
		// neighbour is eligible only if its ancestry has room for the
		// neighbour AND the demand charge still to come — readahead must
		// never consume the last page of headroom under memory.max.
		if q.group.overLimitAncestor(2*m.cfg.PageSize) != nil {
			if m.tel != nil {
				m.tel.readaheadSkips.Inc()
			}
			q = next
			continue
		}
		m.batchHandles = append(m.batchHandles, backend.Handle(q.handle))
		m.batchPages = append(m.batchPages, q)
		m.dropFromCluster(q)
		q.group.swappedPages--
		q.state = Resident
		q.active = false
		q.referenced = false
		q.group.lists[q.Type][0].pushHead(q)
		q.group.residentPages[q.Type]++
		q.group.charge(m.cfg.PageSize)
		loaded++
		q = next
	}
	if loaded > 0 {
		m.readaheadIn += int64(loaded)
		if m.tel != nil {
			m.tel.readaheadIns.Add(int64(loaded))
		}
	}
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Root returns the root group, representing the whole host.
func (m *Manager) Root() *Group { return m.root }

// OOMEvents returns how many charges exceeded capacity despite reclaim.
func (m *Manager) OOMEvents() int64 { return m.oomEvents }

// SwapExhausted reports whether the swap backend last refused a store.
func (m *Manager) SwapExhausted() bool { return m.swapExhausted }

// NewGroup creates a child memory control group under parent (the root if
// nil).
func (m *Manager) NewGroup(name string, parent *Group) *Group {
	if parent == nil {
		parent = m.root
	}
	if parent.mgr != m {
		panic("mm: parent group belongs to a different manager")
	}
	g := &Group{name: name, mgr: m, parent: parent}
	parent.children = append(parent.children, g)
	return g
}

// SetLimit sets g's memory.max. If current usage exceeds the new limit the
// excess is reclaimed synchronously, as writing memory.max does in the
// kernel. It returns the reclaim outcome (zero result if none was needed).
func (m *Manager) SetLimit(now vclock.Time, g *Group, limit int64) ReclaimResult {
	g.limitBytes = limit
	if limit <= 0 {
		return ReclaimResult{}
	}
	if over := g.usageForLimit() - limit; over > 0 {
		return m.reclaim(now, g, over, false)
	}
	return ReclaimResult{}
}

// SetCapacity changes host DRAM to bytes at runtime — a ballooning
// neighbour or hotplug event shrinking (or restoring) the memory actually
// available to this host. Shrinking below current usage reclaims the excess
// synchronously from the root, exactly as if the root's memory.max dropped.
func (m *Manager) SetCapacity(now vclock.Time, bytes int64) ReclaimResult {
	if bytes <= 0 {
		panic("mm: SetCapacity requires positive bytes")
	}
	m.cfg.CapacityBytes = bytes
	if over := m.root.usageForLimit() - bytes; over > 0 {
		return m.reclaim(now, m.root, over, false)
	}
	return ReclaimResult{}
}

// ProactiveReclaim is the memory.reclaim control file (§3.3): it asks the
// kernel to reclaim the given number of bytes from g's subtree without
// changing any limit. This is the stateless knob Senpai drives.
func (m *Manager) ProactiveReclaim(now vclock.Time, g *Group, bytes int64) ReclaimResult {
	if bytes <= 0 {
		return ReclaimResult{}
	}
	return m.reclaim(now, g, bytes, false)
}

// HostStat summarises host-level memory occupancy.
type HostStat struct {
	CapacityBytes int64
	// ResidentBytes is application-resident memory across all groups.
	ResidentBytes int64
	// PoolBytes is DRAM consumed by the swap backend (zswap pool).
	PoolBytes int64
	// FreeBytes is unallocated DRAM.
	FreeBytes int64
	// FarBytes is application memory placed on the far node — mapped and
	// accessible, but costing no local DRAM (excluded from ResidentBytes).
	FarBytes int64
}

// HostStat returns the current host occupancy.
func (m *Manager) HostStat() HostStat {
	var pool, far int64
	if m.cfg.Swap != nil {
		pool = m.cfg.Swap.PoolBytes()
	}
	if m.cfg.Far != nil {
		far = m.cfg.Far.UsedBytes()
	}
	res := m.root.hierResidentBytes
	return HostStat{
		CapacityBytes: m.cfg.CapacityBytes,
		ResidentBytes: res,
		PoolBytes:     pool,
		FreeBytes:     m.cfg.CapacityBytes - res - pool,
		FarBytes:      far,
	}
}

// NewPages creates n pages of the given type owned by g, in the NotPresent
// state; they consume no memory until first touched. compressibility is the
// content's compression ratio when offloaded to zswap.
func (m *Manager) NewPages(g *Group, t PageType, n int, compressibility float64) []*Page {
	if g.mgr != m {
		panic("mm: group belongs to a different manager")
	}
	if compressibility < 1 {
		compressibility = 1
	}
	pages := make([]*Page, n)
	backing := m.allocPages(n)
	for i := range pages {
		p := &backing[i]
		p.Type = t
		p.Compressibility = compressibility
		p.group = g
		p.state = NotPresent
		pages[i] = p
	}
	return pages
}

// pageSlabLen is the size, in pages, of the slabs NewPages carves small
// requests from. 512 pages (64 KiB) is a large object, which the Go
// allocator page-aligns; a []Page between 512 B and 32 KiB would instead
// start 8 bytes past an aligned boundary (the allocator's type header), and
// every page's hot line would straddle two cache lines.
const pageSlabLen = 512

// allocPages returns n zeroed pages whose hot lines are 64-byte aligned.
func (m *Manager) allocPages(n int) []Page {
	if n >= pageSlabLen {
		return make([]Page, n)
	}
	if len(m.pageSlab) < n {
		m.pageSlab = make([]Page, pageSlabLen)
	}
	b := m.pageSlab[:n:n]
	m.pageSlab = m.pageSlab[n:]
	return b
}

// TouchResult describes the outcome of one page access.
type TouchResult struct {
	// Fault reports whether the access missed DRAM.
	Fault bool
	// Latency is the synchronous wait the task served for the fault
	// itself (device read or decompression).
	Latency vclock.Duration
	// MemStall reports whether Latency counts toward memory pressure:
	// true for swap-ins and refaults, false for first-time file reads.
	MemStall bool
	// IOStall reports whether Latency counts toward IO pressure: true
	// whenever block IO was performed.
	IOStall bool
	// DirectReclaimStall is additional memory-stall time spent in
	// charge-triggered direct reclaim (always a memory stall, per §3.2.3).
	DirectReclaimStall vclock.Duration
	// Classification of the fault, when Fault is set.
	SwapIn, Refault, ColdRead, ZeroFill bool
	// Coalesced marks a swap-in served by a batch already in flight: the
	// task waited out the batch's remainder rather than issuing a load.
	Coalesced bool
}

// TotalStall returns the task's total wait for this access.
func (r TouchResult) TotalStall() vclock.Duration { return r.Latency + r.DirectReclaimStall }

// TouchWrite simulates a write access: like Touch, but the page is left
// dirty, so its eventual eviction must write it back to storage. Writing a
// not-yet-present file page is a buffered write — the cache page is
// populated without reading old content from storage.
func (m *Manager) TouchWrite(now vclock.Time, p *Page) TouchResult {
	if p.Type == File && p.state == NotPresent {
		res := TouchResult{Fault: true, ZeroFill: true}
		res.DirectReclaimStall = m.tryCharge(now, p.group)
		m.makeResident(now, p)
		p.dirty = true
		m.noteFault(now, p.group, res)
		return res
	}
	res := m.Touch(now, p)
	if p.Type == File {
		p.dirty = true
	}
	return res
}

// Touch simulates one access to page p at time now, handling any fault and
// LRU bookkeeping, and returns what the accessing task experienced.
func (m *Manager) Touch(now vclock.Time, p *Page) TouchResult {
	if p.state == Resident && !p.far && p.pendingUntil <= now {
		// Local resident hit, the request loop's common case: no fault,
		// no wait, and no call into the fault paths.
		m.markAccessed(p)
		p.lastTouch, p.touched = now, true
		return TouchResult{}
	}
	res := m.touch(now, p)
	if res.Fault {
		m.noteFault(now, p.group, res)
	}
	return res
}

// Warm reads the hit-path line of every page in pages, then the lines of the
// LRU neighbours that a touch promoting a page to the active list will
// rewrite, back to back, so a caller about to touch those pages pays their
// cache misses together instead of one per Touch. It changes no state; the
// result exists only so the loads are kept, and the caller should store it.
func Warm(pages []*Page) uint8 {
	var x uint8
	for _, p := range pages {
		x += uint8(p.state)
	}
	for _, p := range pages {
		if p.referenced && !p.active {
			if q := p.prev; q != nil {
				x += uint8(q.state)
			}
			if q := p.next; q != nil {
				x += uint8(q.state)
			}
		}
	}
	return x
}

// touch is Touch's slow path, without the telemetry publication: every
// access except a local resident hit with nothing in flight.
func (m *Manager) touch(now vclock.Time, p *Page) TouchResult {
	g := p.group
	switch p.state {
	case Resident:
		if p.far {
			// Byte-addressable far access: the page is mapped, so there is
			// no fault — the load itself runs at link latency. The wait is
			// accounted as a memory stall (§3.2.3 attributes any
			// memory-wait to memory pressure), which is what lets Senpai
			// and the placement loop balance placement pressure.
			lat := m.cfg.Far.AccessDelay(now)
			if !p.referenced {
				p.referenced = true
				if p.list != nil {
					p.list.refs++
				}
			}
			if p.farHits < ^uint8(0) {
				p.farHits++
			}
			p.lastTouch, p.touched = now, true
			return TouchResult{Latency: lat, MemStall: true}
		}
		// Touch served the plain hit, so the page is still in flight on a
		// batched load another fault submitted: coalesce onto that batch.
		// The task waits out the remainder instead of issuing a duplicate
		// load.
		remainder := p.pendingUntil.Sub(now)
		ioStall := p.pendingIO
		p.pendingUntil, p.pendingIO = 0, false
		p.refaulted = true
		m.markAccessed(p)
		p.lastTouch, p.touched = now, true
		g.noteCost(now, Anon)
		return TouchResult{
			Fault:     true,
			SwapIn:    true,
			Coalesced: true,
			Latency:   remainder,
			MemStall:  true,
			IOStall:   ioStall,
		}

	case NotPresent:
		var res TouchResult
		if p.Type == File {
			// First read of a file page: block IO, not a memory stall.
			res.Fault, res.ColdRead, res.IOStall = true, true, true
			res.Latency = m.cfg.FS.ReadPage(now) + m.cfg.FaultOverhead
			g.stat.ColdFileReads++
		} else {
			// First touch of anon memory: zero-fill, no IO.
			res.Fault, res.ZeroFill = true, true
		}
		res.DirectReclaimStall = m.tryCharge(now, g)
		m.makeResident(now, p)
		return res

	case Offloaded:
		cl := p.cluster
		m.dropFromCluster(p)
		if cl != nil && cl.n == 0 {
			// The fault emptied its cluster, and dropFromCluster has
			// already recycled it (onto freeClusters, or reset in place if
			// it was the fill cluster). An empty cluster has no neighbours
			// to read ahead, so forget the stale pointer.
			cl = nil
		}
		// Gather the whole cluster — demand page plus eligible readahead
		// neighbours — and submit it as ONE batched load: the device pays
		// its fixed per-submission cost once, and the neighbour reads no
		// longer land as free extra ops on the read meter (which used to
		// inflate the queue factor for the very next demand fault).
		m.batchHandles = append(m.batchHandles[:0], backend.Handle(p.handle))
		m.batchPages = m.batchPages[:0]
		m.gatherReadahead(cl)
		load := m.cfg.Swap.LoadBatch(now, m.batchHandles)
		if m.swapExhausted {
			// Space was just released; allow anon scanning again.
			m.swapExhausted = false
		}
		// Neighbours become Resident at batch completion: a touch before
		// then coalesces onto this batch and waits out the remainder.
		arrival := now.Add(load.Latency)
		for _, q := range m.batchPages {
			q.pendingUntil = arrival
			q.pendingIO = load.BlockIO
		}
		g.stat.SwapIns++
		g.swappedPages--
		g.noteCost(now, Anon)
		// A demand swap-in is a refault: the page's reuse distance proved
		// shorter than its offload. The flag rides to the next offload so
		// the backend can bias this page toward a faster tier.
		p.refaulted = true
		res := TouchResult{
			Fault:    true,
			SwapIn:   true,
			Latency:  load.Latency + m.cfg.FaultOverhead,
			MemStall: true,
			IOStall:  load.BlockIO,
		}
		res.DirectReclaimStall = m.tryCharge(now, g)
		m.makeResident(now, p)
		return res

	case EvictedFile:
		res := TouchResult{Fault: true, IOStall: true}
		res.Latency = m.cfg.FS.ReadPage(now) + m.cfg.FaultOverhead
		if p.hasShadow {
			distance := g.evictions - p.shadow
			p.hasShadow = false
			// The kernel classifies the fault as a working-set refault
			// when the reuse distance fits within the memory the group
			// has resident.
			if distance <= uint64(g.residentPages[Anon]+g.residentPages[File])+1 {
				res.Refault, res.MemStall = true, true
				g.stat.Refaults++
				g.noteCost(now, File)
			} else {
				res.ColdRead = true
				g.stat.ColdFileReads++
			}
		} else {
			res.ColdRead = true
			g.stat.ColdFileReads++
		}
		res.DirectReclaimStall = m.tryCharge(now, g)
		m.makeResident(now, p)
		return res
	}
	panic(fmt.Sprintf("mm: touch of page in invalid state %v", p.state))
}

// markAccessed implements mark_page_accessed: the first touch sets the
// referenced bit; a second touch promotes an inactive page to the active
// list.
func (m *Manager) markAccessed(p *Page) {
	if !p.referenced {
		p.referenced = true
		if p.list != nil {
			p.list.refs++
		}
		return
	}
	if !p.active {
		g := p.group
		g.lists[p.Type][0].remove(p)
		p.active = true
		p.referenced = false
		g.lists[p.Type][1].pushHead(p)
		if m.tel != nil {
			m.tel.activations.Inc()
		}
	}
}

// makeResident charges and inserts a faulted page at the inactive head. In
// static-interleave mode (the baseline the placement loop is measured
// against) a deterministic fraction of new anonymous pages land on the far
// node instead, uncharged.
func (m *Manager) makeResident(now vclock.Time, p *Page) {
	g := p.group
	p.state = Resident
	p.active = false
	p.referenced = true
	p.pendingUntil, p.pendingIO = 0, false
	p.lastTouch, p.touched = now, true
	if p.Type == Anon && m.farInterleave > 0 && m.cfg.Far != nil {
		m.interleaveAcc += m.farInterleave
		if m.interleaveAcc >= 1 && m.cfg.Far.TryReserve(m.cfg.PageSize) {
			m.interleaveAcc--
			p.far = true
			p.farHits = 0
			g.farList.pushHead(p)
			g.farPages++
			return
		}
	}
	g.lists[p.Type][0].pushHead(p)
	g.residentPages[p.Type]++
	g.charge(m.cfg.PageSize)
}

// tryCharge makes room for one page if some limit in g's ancestry would be
// exceeded, returning the direct-reclaim stall served by the faulting task.
// If reclaim cannot make room the charge proceeds anyway and an OOM event is
// recorded; the simulated workloads throttle themselves before this point,
// as the paper's Web tier does.
func (m *Manager) tryCharge(now vclock.Time, g *Group) vclock.Duration {
	worst := g.overLimitAncestor(m.cfg.PageSize)
	if worst == nil {
		return 0
	}
	need := worst.usageForLimit() + m.cfg.PageSize - worst.effectiveLimit()
	g.stat.DirectReclaims++
	if m.tel != nil {
		m.tel.directReclaims.Inc()
	}
	res := m.reclaim(now, worst, need, true)
	if res.ReclaimedBytes < need {
		m.oomEvents++
		g.stat.OOMEvents++
		if m.tel != nil {
			m.tel.oomEvents.Inc()
		}
	}
	return res.StallTime
}

// effectiveLimit returns the limit enforced for the group: memory.max, or
// host capacity for the root.
func (g *Group) effectiveLimit() int64 {
	if g == g.mgr.root {
		return g.mgr.cfg.CapacityBytes
	}
	return g.limitBytes
}

// FreePages releases pages back to the NotPresent state, discarding content:
// resident pages uncharge immediately, offloaded pages free their backend
// slot, evicted file pages drop their shadow. Workload restarts (the
// "code push" events in Figs. 11 and 13) are modeled with this.
func (m *Manager) FreePages(pages []*Page) {
	for _, p := range pages {
		switch p.state {
		case Resident:
			g := p.group
			if p.far {
				g.farList.remove(p)
				g.farPages--
				m.cfg.Far.Release(m.cfg.PageSize)
				p.far, p.migrating, p.farHits = false, false, 0
				break
			}
			var lst *lruList
			if p.active {
				lst = &g.lists[p.Type][1]
			} else {
				lst = &g.lists[p.Type][0]
			}
			lst.remove(p)
			g.residentPages[p.Type]--
			g.charge(-m.cfg.PageSize)
		case Offloaded:
			m.cfg.Swap.Free(backend.Handle(p.handle))
			p.group.swappedPages--
			m.dropFromCluster(p)
		}
		p.state = NotPresent
		p.active, p.referenced, p.hasShadow = false, false, false
		p.dirty = false
		p.touched = false
		p.refaulted = false
		p.pendingUntil, p.pendingIO = 0, false
	}
}

// Coldness histograms a page population by time since last access, the
// measurement behind Fig. 2. windows must be ascending; the result has
// len(windows)+1 entries: the fraction of allocated memory touched within
// each window, and finally the fraction untouched beyond the last window.
// Allocated memory means pages that exist somewhere (resident or offloaded);
// NotPresent pages are not counted.
func Coldness(now vclock.Time, pages []*Page, windows []vclock.Duration) []float64 {
	counts := make([]int64, len(windows)+1)
	var total int64
	for _, p := range pages {
		if p.state == NotPresent || p.state == EvictedFile {
			continue
		}
		total++
		if !p.touched {
			counts[len(windows)]++
			continue
		}
		age := now.Sub(p.lastTouch)
		placed := false
		for i, w := range windows {
			if age <= w {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(windows)]++
		}
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}
