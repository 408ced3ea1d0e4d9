// Package mm implements the simulated kernel memory-management substrate:
// pages, per-cgroup active/inactive LRU lists, shadow-entry refault
// detection, and the reclaim algorithm in both its historical (file-skewed)
// and TMO (cost-balanced) forms (§3.4 of the paper).
//
// The package deliberately mirrors the Linux structures the paper modifies:
//
//   - Each memory control group keeps two LRU pairs — active/inactive for
//     anonymous memory and for file cache — with second-chance scanning
//     driven by per-page referenced bits.
//   - When a file page is evicted, a shadow entry records the group's
//     eviction counter; a later fault computes the reuse distance and
//     classifies the fault as a refault of working-set memory if the
//     distance is smaller than the group's resident set.
//   - TMO-mode reclaim takes file cache exclusively while refaults are
//     absent, then balances file and anonymous scanning by the relative
//     paging cost observed (refault rate vs swap-in rate), so swap engages
//     exactly when the file working set starts getting hurt.
//
// Faults return the stall the faulting task must serve; the simulation layer
// converts those into PSI stall intervals.
package mm

import "tmo/internal/vclock"

// PageType distinguishes the two memory categories of §2.4.
type PageType uint8

// The two page types.
const (
	Anon PageType = iota
	File
	numPageTypes
)

// String names the page type.
func (t PageType) String() string {
	if t == Anon {
		return "anon"
	}
	return "file"
}

// PageState describes where a page's content currently lives.
type PageState uint8

// Page lifecycle states.
const (
	// NotPresent: the page has been created but never populated (a file
	// page not yet read, or anon not yet faulted in). First touch
	// populates it.
	NotPresent PageState = iota
	// Resident: in DRAM, on one of the group's LRU lists.
	Resident
	// Offloaded: an anonymous page stored in the swap backend.
	Offloaded
	// EvictedFile: a file page dropped from cache; a shadow entry may
	// remember its eviction for refault detection. Reload goes to the
	// filesystem.
	EvictedFile
)

// String names the page state.
func (s PageState) String() string {
	switch s {
	case NotPresent:
		return "not-present"
	case Resident:
		return "resident"
	case Offloaded:
		return "offloaded"
	case EvictedFile:
		return "evicted-file"
	}
	return "invalid"
}

// Page is one simulated page frame identity. For file pages the Page stands
// for a (file, offset) position and persists across evictions; for anonymous
// pages it stands for a virtual page of some process.
//
// Layout: every access runs the hit path (Manager.Touch → markAccessed), so
// every field that path reads or writes lives in the first 64 bytes — one
// cache line per resident hit, as the kernel keeps struct page at 64 bytes.
// The swap, cluster and shadow fields, touched only on faults and reclaim,
// follow on the second line, and the struct pads to a 128-byte stride so the
// hot line of every page in a NewPages backing array (see allocPages) stays
// line-aligned. TestPageLayout pins this; keep new hit-path fields in the
// first line.
type Page struct {
	// ---- hot line: the resident-hit path ----

	group *Group
	// LRU bookkeeping.
	list       *lruList
	next, prev *Page

	// pendingUntil, when in the future, is the completion time of the
	// batched load that is bringing this page in: readahead inserts cluster
	// neighbours as Resident the moment the batch is submitted, and a touch
	// before the batch lands is a coalesced fault that waits out the
	// remainder instead of issuing a duplicate load. pendingIO records
	// whether that batch performed block IO, for pressure classification.
	pendingUntil vclock.Time

	// lastTouch supports idle-page tracking (the Fig. 2 coldness
	// characterisation) and is updated on every access; touched records
	// whether the page was ever accessed.
	lastTouch vclock.Time

	// Type is fixed at creation.
	Type  PageType
	state PageState

	active     bool
	referenced bool
	// far marks a Resident anonymous page whose frame lives on the
	// byte-addressable far-memory node rather than local DRAM: it is on the
	// group's far list, costs no local capacity, and every touch pays the
	// link latency in place of a fault.
	far       bool
	touched   bool
	pendingIO bool
	// farHits counts touches since the placement loop's last access-bit
	// scan over this page, saturating; the loop promotes pages whose count
	// crosses its threshold.
	farHits uint8

	// dirty marks a file page whose content has been modified since it
	// was last written back; evicting it costs a device write.
	dirty bool
	// refaulted marks an anon page that demand-faulted back from the swap
	// backend since its last offload. The next offload carries it as
	// StoreReq.Refault so a multi-tier chain can promote the page toward a
	// faster tier; it clears when the offload lands. Readahead neighbours
	// that were never touched do not set it.
	refaulted bool
	// migrating marks a far page with a non-exclusive promotion copy in
	// flight (Nomad-style): the page stays mapped far and fully accessible,
	// so an aborted promotion costs nothing.
	migrating bool
	// hasShadow marks shadow as valid.
	hasShadow bool

	// ---- cold line: faults, reclaim and swap ----

	// Compressibility is the page content's intrinsic compression ratio
	// (uncompressed/compressed) used when the page is offloaded to zswap.
	Compressibility float64

	// handle locates the page in the swap backend while Offloaded.
	handle uint64
	// cluster groups pages swapped out together; swap readahead loads
	// cluster neighbours alongside a faulting page, like the kernel's
	// swap readahead over adjacent swap slots. Membership is intrusive:
	// non-nil only while the page is Offloaded and indexed for readahead.
	cluster                  *swapCluster
	clusterNext, clusterPrev *Page

	// shadow is the group eviction counter recorded when this file page
	// was evicted; valid while hasShadow is set.
	shadow uint64

	_ [16]byte // pad to the 128-byte stride
}

// State returns where the page currently lives.
func (p *Page) State() PageState { return p.state }

// Group returns the memory control group that owns the page.
func (p *Page) Group() *Group { return p.group }

// Active reports whether the page is on the active LRU list.
func (p *Page) Active() bool { return p.active }

// Referenced reports the page's referenced bit.
func (p *Page) Referenced() bool { return p.referenced }

// Dirty reports whether the page awaits writeback.
func (p *Page) Dirty() bool { return p.dirty }

// Far reports whether the page's frame lives on the far-memory node.
func (p *Page) Far() bool { return p.far }

// Migrating reports whether a non-exclusive promotion copy is in flight.
func (p *Page) Migrating() bool { return p.migrating }

// LastTouch returns the time of the page's most recent access and whether
// it was ever accessed.
func (p *Page) LastTouch() (vclock.Time, bool) { return p.lastTouch, p.touched }

// swapCluster indexes the still-offloaded pages of one swap cluster as an
// intrusive doubly-linked list threaded through the pages themselves
// (clusterNext/clusterPrev), so joining and leaving a cluster are O(1)
// pointer updates with no map or slice bookkeeping on the fault path. The
// list is kept in swap-out order: head is the first page stored into the
// cluster, matching the adjacent-slot order the kernel's readahead walks.
type swapCluster struct {
	head, tail *Page
	// n counts live members; when it reaches zero the manager recycles
	// the cluster through its free list.
	n int
}

// pushTail appends p to the cluster in swap-out order.
func (c *swapCluster) pushTail(p *Page) {
	p.cluster = c
	p.clusterNext = nil
	p.clusterPrev = c.tail
	if c.tail != nil {
		c.tail.clusterNext = p
	} else {
		c.head = p
	}
	c.tail = p
	c.n++
}

// remove unlinks p from the cluster.
func (c *swapCluster) remove(p *Page) {
	if p.clusterPrev != nil {
		p.clusterPrev.clusterNext = p.clusterNext
	} else {
		c.head = p.clusterNext
	}
	if p.clusterNext != nil {
		p.clusterNext.clusterPrev = p.clusterPrev
	} else {
		c.tail = p.clusterPrev
	}
	p.cluster, p.clusterNext, p.clusterPrev = nil, nil, nil
	c.n--
}

// lruList is an intrusive doubly-linked page list. The head is the most
// recently added end; reclaim scans from the tail. The list tracks how many
// of its pages carry the referenced bit so reclaim can size its scan budget
// to the work actually needed to clear second chances.
type lruList struct {
	head, tail *Page
	count      int
	refs       int
}

// pushHead inserts p at the head (MRU position).
func (l *lruList) pushHead(p *Page) {
	if p.list != nil {
		panic("mm: page already on a list")
	}
	p.list = l
	p.prev = nil
	p.next = l.head
	if l.head != nil {
		l.head.prev = p
	}
	l.head = p
	if l.tail == nil {
		l.tail = p
	}
	l.count++
	if p.referenced {
		l.refs++
	}
}

// remove unlinks p from the list.
func (l *lruList) remove(p *Page) {
	if p.list != l {
		panic("mm: removing page from wrong list")
	}
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.next, p.prev, p.list = nil, nil, nil
	l.count--
	if p.referenced {
		l.refs--
	}
}

// rotate moves p to the head, giving it another pass through the list.
func (l *lruList) rotate(p *Page) {
	l.remove(p)
	l.pushHead(p)
}
