package mm

import (
	"testing"
	"unsafe"
)

// TestPageLayout pins the Page hot-line rule: every field the resident-hit
// path (touch, markAccessed, the far-hit and coalesced branches) reads or
// writes sits in the first 64 bytes, and the struct keeps a 128-byte stride
// so that line stays aligned in NewPages backing arrays. A field added to
// the hit path later must go into the hot line; this test fails otherwise.
func TestPageLayout(t *testing.T) {
	var p Page
	if got := unsafe.Sizeof(p); got != 128 {
		t.Errorf("unsafe.Sizeof(Page{}) = %d, want 128", got)
	}
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"group", unsafe.Offsetof(p.group), unsafe.Sizeof(p.group)},
		{"list", unsafe.Offsetof(p.list), unsafe.Sizeof(p.list)},
		{"next", unsafe.Offsetof(p.next), unsafe.Sizeof(p.next)},
		{"prev", unsafe.Offsetof(p.prev), unsafe.Sizeof(p.prev)},
		{"pendingUntil", unsafe.Offsetof(p.pendingUntil), unsafe.Sizeof(p.pendingUntil)},
		{"lastTouch", unsafe.Offsetof(p.lastTouch), unsafe.Sizeof(p.lastTouch)},
		{"Type", unsafe.Offsetof(p.Type), unsafe.Sizeof(p.Type)},
		{"state", unsafe.Offsetof(p.state), unsafe.Sizeof(p.state)},
		{"active", unsafe.Offsetof(p.active), unsafe.Sizeof(p.active)},
		{"referenced", unsafe.Offsetof(p.referenced), unsafe.Sizeof(p.referenced)},
		{"far", unsafe.Offsetof(p.far), unsafe.Sizeof(p.far)},
		{"touched", unsafe.Offsetof(p.touched), unsafe.Sizeof(p.touched)},
		{"pendingIO", unsafe.Offsetof(p.pendingIO), unsafe.Sizeof(p.pendingIO)},
		{"farHits", unsafe.Offsetof(p.farHits), unsafe.Sizeof(p.farHits)},
		{"dirty", unsafe.Offsetof(p.dirty), unsafe.Sizeof(p.dirty)},
		{"refaulted", unsafe.Offsetof(p.refaulted), unsafe.Sizeof(p.refaulted)},
	}
	for _, f := range hot {
		if end := f.off + f.size; end > 64 {
			t.Errorf("hit-path field %s ends at byte %d, beyond the 64-byte hot line", f.name, end)
		}
	}
}

// TestNewPagesHotLineAligned checks that the hot line of every page in a
// NewPages backing array starts on a 64-byte boundary, so a resident hit
// reads exactly one cache line.
func TestNewPagesHotLineAligned(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	for _, n := range []int{1, 5, 7, 64, 256, 300, 511, 512, 1000} {
		for i, p := range m.NewPages(g, Anon, n, 1) {
			if addr := uintptr(unsafe.Pointer(p)); addr%64 != 0 {
				t.Fatalf("NewPages(%d): page %d at %#x is not 64-byte aligned", n, i, addr)
			}
		}
	}
}
