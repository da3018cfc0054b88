package obs

import "strings"

// This file is the single authority for how telemetry names map
// between the three surfaces that carry them:
//
//   - registry names — dotted, hierarchical ("comm.halo.bytes",
//     "phase.halo:wait.max_ms"), the keys of Registry/Snapshot;
//   - JSONL step-record counter keys — snake_case
//     ("comm_halo_bytes"), flat because they live beside the
//     rankStatFields counters in one map;
//   - Prometheus exposition names — [a-zA-Z0-9_:] with class-like
//     middle segments lifted into labels
//     (comm_bytes{class="halo"}, phase_max_ms{phase="halo:wait"}).
//
// Emitters (parmd's per-rank observer, which folds every observation
// into the registry and builds the step records from the same delta;
// health's registry export) and the exposition renderer in obs/serve
// all go through these helpers, and a consistency test in package
// parmd pins the round trip on the registry a real run fills, so the
// three surfaces cannot drift apart.

// PromName maps a dotted registry name to a valid Prometheus metric
// name: every character outside [a-zA-Z0-9_] becomes '_' (dots and
// the ':' of phase names included — ':' is reserved for recording
// rules in Prometheus naming conventions), and a leading digit gets
// a '_' prefix.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			c = '_'
		}
		if i == 0 && c >= '0' && c <= '9' {
			b.WriteByte('_')
		}
		b.WriteByte(c)
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// labeledPrefixes names the registry families whose middle segment is
// an instance label, not part of the metric name: comm.<class>.bytes,
// phase.<phase>.max_ms, health.<probe>.ok. Their exposition form is
// <prefix>_<field>{<labelKey>="<middle>"}.
var labeledPrefixes = map[string]string{
	"comm":   "class",
	"phase":  "phase",
	"health": "probe",
}

// SplitLabeled recognizes a three-segment registry name whose family
// lifts its middle segment into a label (see labeledPrefixes). It
// returns the exposition metric name, the label key, and the label
// value; ok is false for every other name (which exposes flat under
// PromName). The middle segment may itself contain ':' (phase names
// like "halo:wait") but never '.'.
func SplitLabeled(name string) (metric, labelKey, labelValue string, ok bool) {
	head, rest, found := strings.Cut(name, ".")
	if !found {
		return "", "", "", false
	}
	key, isLabeled := labeledPrefixes[head]
	if !isLabeled {
		return "", "", "", false
	}
	mid, field, found := strings.Cut(rest, ".")
	if !found || mid == "" || field == "" || strings.Contains(field, ".") {
		return "", "", "", false
	}
	return PromName(head + "_" + field), key, mid, true
}

// CommClassMetric builds the registry name of one traffic class's
// counter: "comm.<class>.<field>".
func CommClassMetric(class, field string) string {
	return "comm." + class + "." + field
}

// CommClassKey builds the JSONL step-record key of one traffic
// class's per-step delta: "comm_<class>_<field>".
func CommClassKey(class, field string) string {
	return "comm_" + class + "_" + field
}
