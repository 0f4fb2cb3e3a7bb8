package experiments

import (
	"bytes"
	"testing"
)

// TestLatencyQuick runs -exp latency at its -quick size: every operation
// row counts at least one op, its percentiles are ordered, and two runs of
// one seed render the same JSON, which make quick-json-diff relies on.
func TestLatencyQuick(t *testing.T) {
	render := func() ([]byte, *LatencyResult) {
		t.Helper()
		res, err := RunLatency(QuickLatencyOptions())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := FprintJSON(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), res
	}
	first, res := render()
	if len(res.Ops) == 0 {
		t.Fatal("no operation rows")
	}
	for _, o := range res.Ops {
		if o.Count == 0 {
			t.Errorf("%s: count 0", o.Op)
		}
		if !(o.P50MS <= o.P95MS && o.P95MS <= o.P99MS && o.P99MS <= o.MaxMS) {
			t.Errorf("%s: p50 %.3f, p95 %.3f, p99 %.3f, max %.3f: want p50 <= p95 <= p99 <= max",
				o.Op, o.P50MS, o.P95MS, o.P99MS, o.MaxMS)
		}
	}
	if second, _ := render(); !bytes.Equal(first, second) {
		t.Errorf("two runs of seed %d render different JSON:\n%s\n---\n%s", QuickLatencyOptions().Seed, first, second)
	}
}
