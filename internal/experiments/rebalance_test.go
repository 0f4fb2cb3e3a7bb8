package experiments

import (
	"strings"
	"testing"
)

// TestRebalanceAcceptance is the rebalancer's acceptance bar: the engineered
// fixture must start with its hottest node above twice the fleet-mean
// utilization, and a bounded number of maintenance rounds must flatten that
// to within 1.3x of the mean while migrating at most half the stored bytes.
func TestRebalanceAcceptance(t *testing.T) {
	opts := DefaultRebalanceOptions()
	res, err := RunRebalance(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkewBefore <= 2 {
		t.Fatalf("fixture skew %.2fx, want > 2x (max %.3f mean %.3f)",
			res.SkewBefore, res.UtilMaxBefore, res.UtilMeanBefore)
	}
	if res.Moves == 0 || res.MovedBytes == 0 {
		t.Fatalf("rebalancer made no moves: %+v", res)
	}
	if res.SkewAfter > 1.3 {
		t.Fatalf("post-rebalance skew %.2fx, want <= 1.3x (max %.3f mean %.3f, %d moves)",
			res.SkewAfter, res.UtilMaxAfter, res.UtilMeanAfter, res.Moves)
	}
	if res.MovedFrac > 0.5 {
		t.Fatalf("moved %.1f%% of stored bytes, want <= 50%% (%d of %d)",
			res.MovedFrac*100, res.MovedBytes, res.UsedTotal)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	for _, row := range []string{"utilization before", "utilization after", "moves over"} {
		if !strings.Contains(sb.String(), row) {
			t.Fatalf("printout missing %q row", row)
		}
	}
	var jb strings.Builder
	if err := FprintJSON(&jb, res); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"skew_before", "skew_after", "moved_bytes", "moved_fraction"} {
		if !strings.Contains(jb.String(), field) {
			t.Fatalf("JSON missing %q", field)
		}
	}
	var cb strings.Builder
	res.FprintCSV(&cb)
	if !strings.Contains(cb.String(), "after,") {
		t.Fatal("CSV missing after row")
	}
}
