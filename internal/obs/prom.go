package obs

import (
	"fmt"
	"io"
	"strings"
)

// WriteProm renders a snapshot in the Prometheus text exposition format
// (version 0.0.4). Naming scheme: every metric is prefixed kosha_ and the
// registry's dotted names are mangled to underscores, so "net.messages"
// becomes kosha_net_messages_total and "op.LOOKUP" the histogram
// kosha_op_lookup_ns. Histograms are exported in nanoseconds with the
// registry's fixed factor-2 bucket bounds.
func WriteProm(w io.Writer, s Snapshot) error {
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}

	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}

	for _, name := range s.HistNames() {
		h := s.Hists[name]
		pn := promName(name) + "_ns"
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		var cum uint64
		for i, b := range h.Buckets {
			cum += b
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, int64(BucketUpper(i)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, h.Count, pn, h.SumNS, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName mangles a registry metric name into a valid Prometheus metric
// name: kosha_ prefix, lowercase, [a-z0-9_] only.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 6)
	b.WriteString("kosha_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
