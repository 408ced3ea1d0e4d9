package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"tmo/internal/vclock"
)

func TestEmitAndEvents(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 3; i++ {
		l.Emit(vclock.Time(i)*vclock.Time(vclock.Second), KindSenpaiReclaim, "web", "reclaim %d", i)
	}
	evs := l.Events()
	if len(evs) != 3 || l.Total() != 3 {
		t.Fatalf("events = %d, total = %d", len(evs), l.Total())
	}
	if evs[0].Detail != "reclaim 0" || evs[2].Detail != "reclaim 2" {
		t.Fatalf("order wrong: %+v", evs)
	}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 10; i++ {
		l.Emit(vclock.Time(i), KindOOMKill, "x", "%d", i)
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	if evs[0].Detail != "7" || evs[2].Detail != "9" {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	if l.Total() != 10 {
		t.Fatalf("total = %d", l.Total())
	}
}

func TestTail(t *testing.T) {
	l := NewLog(10)
	for i := 0; i < 5; i++ {
		l.Emit(vclock.Time(i), KindRestart, "app", "r%d", i)
	}
	out := l.Tail(2)
	if !strings.Contains(out, "r3") || !strings.Contains(out, "r4") || strings.Contains(out, "r2") {
		t.Fatalf("tail = %q", out)
	}
	if got := l.Tail(0); strings.Count(got, "\n") != 5 {
		t.Fatalf("tail(0) should render all: %q", got)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	NewLog(0)
}

func TestEventString(t *testing.T) {
	e := Event{Time: vclock.Time(vclock.Second), Kind: KindSenpaiWriteRg, Subject: "ads", Detail: "x"}
	s := e.String()
	if !strings.Contains(s, "senpai.write-regulated") || !strings.Contains(s, "ads") {
		t.Fatalf("event string = %q", s)
	}
}

// Total must keep counting across many full ring wraps, not reset or
// saturate when the ring recycles slots.
func TestTotalAcrossManyWraps(t *testing.T) {
	const capacity = 7
	l := NewLog(capacity)
	const emits = capacity*100 + 3 // 100+ wraps, deliberately not a multiple
	for i := 0; i < emits; i++ {
		l.Emit(vclock.Time(i), KindMMRefault, "g", "%d", i)
	}
	if l.Total() != emits {
		t.Fatalf("total = %d, want %d", l.Total(), emits)
	}
	evs := l.Events()
	if len(evs) != capacity {
		t.Fatalf("retained %d, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		if want := emits - capacity + i; e.Detail != fmt.Sprintf("%d", want) {
			t.Fatalf("event %d = %q, want %d", i, e.Detail, want)
		}
	}
}

// The detail column must start at the same offset whether the subject is
// short or over-wide; over-wide subjects are clipped, not allowed to shift
// the columns.
func TestEventStringAlignment(t *testing.T) {
	short := Event{Time: 0, Kind: KindOOMKill, Subject: "web", Detail: "DETAIL"}
	long := Event{Time: 0, Kind: KindOOMKill,
		Subject: "workload-with-an-extremely-long-cgroup-name", Detail: "DETAIL"}
	si, li := strings.Index(short.String(), "DETAIL"), strings.Index(long.String(), "DETAIL")
	if si < 0 || si != li {
		t.Fatalf("detail offsets differ: %d vs %d\n%q\n%q", si, li, short.String(), long.String())
	}
	if !strings.Contains(long.String(), "~") {
		t.Fatalf("long subject not clipped: %q", long.String())
	}
	if strings.Contains(short.String(), "~") {
		t.Fatalf("short subject clipped: %q", short.String())
	}
	// Clipping must also hold for over-wide kinds.
	wideKind := Event{Time: 0, Kind: Kind("some.very.long.subsystem.kind.name"), Subject: "s", Detail: "DETAIL"}
	if wi := strings.Index(wideKind.String(), "DETAIL"); wi != si {
		t.Fatalf("wide kind shifted detail column: %d vs %d\n%q", wi, si, wideKind.String())
	}
}

// Property: the ring always keeps exactly the last min(total, cap) events,
// chronologically ordered.
func TestRingInvariant(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		l := NewLog(capacity)
		for i := 0; i < int(n); i++ {
			l.Emit(vclock.Time(i), KindRestart, "s", "%d", i)
		}
		evs := l.Events()
		want := int(n)
		if want > capacity {
			want = capacity
		}
		if len(evs) != want {
			return false
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Time <= evs[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// countingArg counts how often its detail is formatted.
type countingArg struct{ n *int }

func (c countingArg) String() string { *c.n++; return "x" }

// Emit formats nothing: an event's detail is rendered only when the log is
// read, so events the ring evicts unread cost no formatting.
func TestEmitFormatsOnRead(t *testing.T) {
	formatted := 0
	l := NewLog(3)
	for i := 0; i < 100; i++ {
		l.Emit(vclock.Time(i), KindMMRefault, "g", "%v after %d", countingArg{&formatted}, i)
	}
	if formatted != 0 {
		t.Fatalf("Emit formatted %d details", formatted)
	}
	if got := l.Tail(0); formatted != 3 || !strings.HasSuffix(got, "x after 99\n") {
		t.Fatalf("Tail formatted %d details: %q", formatted, got)
	}
}
