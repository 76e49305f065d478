// Chrome trace-event export: renders a Tracer's events as the JSON that
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Process/thread layout of the exported trace: one synthetic process for
// the device timeline, one for the tenant timeline.
const (
	devicePID = 1
	tenantPID = 2
	// controlTID is thread 0 of the device process: events scoped to
	// neither a device nor a tenant (control decisions, pool samples).
	controlTID = 0
)

// chromeEvent is one entry of the trace-event format's traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace writes the events as Chrome trace-event JSON. Device
// tracks (process "devices") carry dispatch spans, cache activity and
// control decisions; tenant tracks (process "tenants") carry request
// lifecycle instants. Pool samples with a Metrics map become counter
// tracks. Event names are the Kind strings, so trace validators can count
// lifecycle stages by name; details ride in args. Output is deterministic:
// track IDs come from sorted names and encoding/json sorts map keys.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var events []Event
	if t != nil {
		events = t.events
	}

	deviceTID := map[string]int{}
	tenantTID := map[string]int{}
	for _, e := range events {
		if e.Device != "" {
			deviceTID[e.Device] = 0
		}
		if e.Tenant != "" {
			tenantTID[e.Tenant] = 0
		}
	}
	// Thread 0 of the device process is reserved for control-scoped
	// events; named tracks start at 1.
	for i, name := range sortedKeys(deviceTID) {
		deviceTID[name] = i + 1
	}
	for i, name := range sortedKeys(tenantTID) {
		tenantTID[name] = i + 1
	}

	out := make([]chromeEvent, 0, len(events)+2*(len(deviceTID)+len(tenantTID))+3)
	meta := func(name string, pid, tid int, label string) {
		ev := chromeEvent{Name: name, Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": label}}
		out = append(out, ev)
	}
	meta("process_name", devicePID, controlTID, "devices")
	meta("process_name", tenantPID, controlTID, "tenants")
	meta("thread_name", devicePID, controlTID, "control")
	for _, name := range sortedKeys(deviceTID) {
		meta("thread_name", devicePID, deviceTID[name], name)
	}
	for _, name := range sortedKeys(tenantTID) {
		meta("thread_name", tenantPID, tenantTID[name], name)
	}

	for _, e := range events {
		ce := chromeEvent{Name: e.Kind, TsUs: e.AtMs * 1000}
		switch {
		case e.Tenant != "":
			ce.PID, ce.TID = tenantPID, tenantTID[e.Tenant]
		case e.Device != "":
			ce.PID, ce.TID = devicePID, deviceTID[e.Device]
		default:
			ce.PID, ce.TID = devicePID, controlTID
		}
		args := map[string]any{}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		if e.Network != "" {
			args["network"] = e.Network
		}
		if e.Request >= 0 {
			args["request"] = e.Request
		}
		if e.Value != 0 {
			args["value"] = e.Value
		}
		// Cross-reference the other axis so a tenant instant still names
		// its device and vice versa.
		if e.Tenant != "" && e.Device != "" {
			args["device"] = e.Device
		}
		switch {
		case e.Kind == KindPool && len(e.Metrics) > 0:
			ce.Phase = "C"
			cargs := make(map[string]any, len(e.Metrics))
			//detlint:allow maprange map-to-map copy rendered by encoding/json, which sorts keys
			for k, v := range e.Metrics {
				cargs[k] = v
			}
			args = cargs
		case e.DurMs > 0:
			ce.Phase = "X"
			ce.DurUs = e.DurMs * 1000
		default:
			ce.Phase = "i"
			ce.Scope = "t"
		}
		// Non-counter events carrying a Metrics map (audit pairs, gossip
		// rounds) keep their samples as plain args.
		if ce.Phase != "C" && len(e.Metrics) > 0 {
			//detlint:allow maprange map-to-map copy rendered by encoding/json, which sorts keys
			for k, v := range e.Metrics {
				args[k] = v
			}
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out = append(out, ce)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out})
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
