// Package trace provides a bounded, allocation-light event log for the
// userspace controllers. Production TMO ships controller decisions to
// fleet telemetry; here the same role is played by an in-memory ring that
// tools (tmosim -trace) can dump for debugging a run.
package trace

import (
	"fmt"
	"strings"

	"tmo/internal/vclock"
)

// Kind classifies an event source.
type Kind string

// Well-known event kinds.
const (
	KindSenpaiReclaim Kind = "senpai.reclaim"
	KindSenpaiBackoff Kind = "senpai.backoff"
	KindSenpaiWriteRg Kind = "senpai.write-regulated"
	KindSenpaiTick    Kind = "senpai.tick"
	KindOOMKill       Kind = "oomd.kill"
	KindRestart       Kind = "workload.restart"
	// Memory-management and backend events, promoted from ad-hoc counters
	// so decision logs can correlate controller actions with their kernel-
	// and device-level consequences.
	KindMMRefault        Kind = "mm.refault"
	KindMMReclaim        Kind = "mm.reclaim"
	KindBackendWriteback Kind = "backend.writeback"
	KindZswapReject      Kind = "zswap.reject"
	// Chaos-engine perturbations: a fault going active and returning to
	// nominal, logged next to the controller reactions they provoke.
	KindChaosInject  Kind = "chaos.inject"
	KindChaosRestore Kind = "chaos.restore"
	// Fleet control-plane decisions: stage transitions of a staged policy
	// rollout, guardrail verdicts (per candidate and device cohort),
	// candidate drops and promotions of the bandit race, automatic
	// rollbacks, and host lifecycle (crash/rejoin/policy-rebuild) events.
	KindRolloutStage    Kind = "rollout.stage"
	KindRolloutTrip     Kind = "rollout.guardrail-trip"
	KindRolloutDrop     Kind = "rollout.candidate-drop"
	KindRolloutPromote  Kind = "rollout.promote"
	KindRolloutRollback Kind = "rollout.rollback"
	KindRolloutComplete Kind = "rollout.complete"
	KindRolloutPush     Kind = "rollout.policy-push"
	KindHostCrash       Kind = "rollout.host-crash"
	KindHostRejoin      Kind = "rollout.host-rejoin"
	KindHostRebuild     Kind = "rollout.host-rebuild"
	// Observability-plane events: an SLO burn-rate monitor firing ahead of
	// a barrier verdict, and a flight-recorder bundle being cut.
	KindSLOBurn    Kind = "slo.burn-alert"
	KindFlightDump Kind = "rollout.flight-dump"
	// Placement-loop events: promotion outcomes (committed or aborted at
	// zero cost) and watermark demotions to the far-memory node.
	KindPlacePromote Kind = "place.promote"
	KindPlaceDemote  Kind = "place.demote"
	// Twin-fidelity recalibration advice: the pressure-gap burn monitor
	// fired, so the campaign's calibration surface should be re-probed.
	KindRolloutRecalib Kind = "rollout.recalibrate-advice"
)

// Event is one recorded decision.
type Event struct {
	Time    vclock.Time
	Kind    Kind
	Subject string
	Detail  string
}

// Column widths for the String rendering; over-long fields are truncated so
// the detail column stays aligned regardless of subject length.
const (
	timeCol    = 10
	kindCol    = 22
	subjectCol = 18
)

// clip truncates s to width characters, marking the cut with a '~'.
func clip(s string, width int) string {
	if len(s) <= width {
		return s
	}
	return s[:width-1] + "~"
}

// String renders the event as one log line with fixed-width columns.
func (e Event) String() string {
	return fmt.Sprintf("%-*s %-*s %-*s %s",
		timeCol, clip(e.Time.String(), timeCol),
		kindCol, clip(string(e.Kind), kindCol),
		subjectCol, clip(e.Subject, subjectCol),
		e.Detail)
}

// Log is a fixed-capacity ring of events. The zero value is unusable; call
// NewLog.
type Log struct {
	ring  []entry
	next  int
	total int64
}

// entry is one retained event with its detail not yet formatted: the ring
// keeps only the last few events, and some sources (a refault, a tier
// demotion) emit on every occurrence, so formatting waits until the event is
// read.
type entry struct {
	time    vclock.Time
	kind    Kind
	subject string
	format  string
	args    []any
}

// event renders e.
func (e entry) event() Event {
	return Event{Time: e.time, Kind: e.kind, Subject: e.subject, Detail: fmt.Sprintf(e.format, e.args...)}
}

// NewLog returns a log retaining the most recent capacity events.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Log{ring: make([]entry, 0, capacity)}
}

// Emit records an event whose detail is fmt.Sprintf(format, args...). The
// detail is formatted when the event is read, so args must be values that
// do not change afterwards: no pointers, and no slice the caller reuses.
func (l *Log) Emit(now vclock.Time, kind Kind, subject, format string, args ...any) {
	e := entry{time: now, kind: kind, subject: subject, format: format, args: args}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.total++
}

// Total returns how many events were ever emitted (including evicted ones).
func (l *Log) Total() int64 { return l.total }

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	out := make([]Event, 0, len(l.ring))
	for _, e := range l.ring[l.next:] {
		out = append(out, e.event())
	}
	for _, e := range l.ring[:l.next] {
		out = append(out, e.event())
	}
	return out
}

// Tail renders the last n retained events, oldest first.
func (l *Log) Tail(n int) string {
	evs := l.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}
