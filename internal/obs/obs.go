// Package obs is the deterministic observability layer of the serving
// stack: request-lifecycle tracing, streaming quantile metrics, a
// counter/gauge registry and the predicted-vs-actual forensics audit,
// shared by internal/serve, internal/fleet and internal/control.
//
// Everything here runs on the virtual timeline and is strictly on the
// side: a Tracer records structured events in emission order (the stack
// is single-threaded per run, so that order is deterministic), a Sketch
// summarizes a latency stream in fixed memory, a Registry snapshots
// named counters, and an Audit streams (predicted, actual) pairs into
// per-key calibration aggregates — none of them feed back into
// scheduling, so a run produces byte-identical summaries with
// observability on or off.
//
// Traces export two ways: WriteJSONL for stream processing, and
// WriteChromeTrace for the Chrome trace-event JSON that Perfetto
// (ui.perfetto.dev) and chrome://tracing load — one track per device
// (dispatch spans and cache activity) and one per tenant (request
// lifecycle instants). cmd/obsreport consumes the JSONL offline,
// rebuilding the audit tables from the event stream and attributing a
// root cause to every SLO violation.
package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// NoRequest marks an event that is not scoped to a single request
// (dispatch rounds, cache activity, scaling decisions).
const NoRequest = -1

// Event kinds, one per lifecycle stage or layer decision.
const (
	// Request lifecycle (serve layer).
	KindArrive   = "arrive"
	KindAdmit    = "admit"
	KindReject   = "reject"
	KindComplete = "complete"
	KindViolate  = "violate"

	// Dispatch rounds (serve layer).
	KindMixForm  = "mix-form"
	KindMixScore = "mix-score"
	KindForce    = "force"
	KindDispatch = "dispatch"

	// Schedule cache.
	KindCacheHit     = "cache-hit"
	KindCacheMiss    = "cache-miss"
	KindCacheProbe   = "cache-probe"
	KindCacheSolve   = "cache-solve"
	KindCachePromote = "cache-promote"
	KindUpgrade      = "cache-upgrade"

	// Fleet and control decisions.
	KindPlace   = "place"
	KindScale   = "scale"
	KindMigrate = "migrate"
	KindPool    = "pool"

	// Forensics (see Audit and cmd/obsreport): "audit" pairs a model
	// prediction with its ground-truth actual (per dispatch round and per
	// request, plus control's scale-lag windows).
	KindAudit = "audit"

	// Sharded control plane (internal/shard): "gossip" is one shard's
	// view of one barrier-round exchange (entries sent/received, load
	// report); "handoff" records a tenant moved off an SLO-pressured
	// shard at a barrier.
	KindGossip  = "gossip"
	KindHandoff = "handoff"
)

// Event is one structured observation on the virtual timeline.
type Event struct {
	// AtMs is the virtual time of the event; DurMs its span (dispatch
	// rounds — zero for instants).
	AtMs  float64 `json:"at_ms"`
	DurMs float64 `json:"dur_ms,omitempty"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Device, Tenant and Network scope the event (any may be empty).
	Device  string `json:"device,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Network string `json:"network,omitempty"`
	// Request is the request ID, or NoRequest for events not scoped to
	// one.
	Request int `json:"request"`
	// Detail carries the kind-specific label: the mix key for cache and
	// dispatch events, the policy name for mix-form, the reject reason,
	// the scale action.
	Detail string `json:"detail,omitempty"`
	// Value carries the kind-specific number: queue depth on admit,
	// latency on complete, predicted makespan on mix-score, waited
	// rounds on force, decision signal on scale.
	Value float64 `json:"value,omitempty"`
	// Metrics carries multi-valued samples (pool utilization points);
	// rendered as a counter track in the Chrome export.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Tracer collects events in emission order. The zero value is unusable;
// build one with NewTracer. A nil *Tracer is a valid no-op sink — every
// method is nil-safe — so instrumented code calls Emit unconditionally
// and tracing off costs one nil check.
type Tracer struct {
	events []Event
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Emit appends one event. No-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.events = append(t.events, e)
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns a copy of the recorded events in emission order, so a
// caller mutating the returned slice (sorting, annotating) cannot corrupt
// the tracer's own stream or a later export. Nil on a nil or empty
// tracer.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.events) == 0 {
		return nil
	}
	return append([]Event(nil), t.events...)
}

// MergeTracers folds several tracers' streams into one chronological
// trace: events are stably sorted by virtual time, ties resolved by
// tracer order then emission order. The sharded control plane records
// each shard into its own tracer (Tracer is not safe for concurrent
// Emit) and merges after the barrier-synchronized run, so the combined
// trace is byte-identical run to run. Nil tracers are skipped; the
// inputs are not mutated.
func MergeTracers(tracers ...*Tracer) *Tracer {
	out := NewTracer()
	for _, t := range tracers {
		if t == nil {
			continue
		}
		out.events = append(out.events, t.events...)
	}
	sort.SliceStable(out.events, func(i, j int) bool { return out.events[i].AtMs < out.events[j].AtMs })
	return out
}

// CountByKind tallies the recorded events per kind (for tests and
// validators).
func (t *Tracer) CountByKind() map[string]int {
	counts := map[string]int{}
	if t == nil {
		return counts
	}
	for _, e := range t.events {
		counts[e.Kind]++
	}
	return counts
}

// WriteJSONL writes the events as JSON Lines, one event per line, in
// emission order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range t.events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
