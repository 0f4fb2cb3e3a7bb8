package experiments

import (
	"strings"
	"testing"
)

// TestDedupAcceptance is the chunk-store acceptance bar: the duplicate-heavy
// corpus must dedup at least 2x in the block index, and a 16-byte edit in a
// big replicated file must resync (and promote-repair) for at most 10% of
// the file's size — what a whole-file refresh or pull would have to move.
func TestDedupAcceptance(t *testing.T) {
	opts := DefaultDedupOptions()
	res, err := RunDedup(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogicalBytes == 0 || res.StoredBytes == 0 {
		t.Fatalf("block index saw nothing: logical=%d stored=%d", res.LogicalBytes, res.StoredBytes)
	}
	if res.DedupRatio < 2 {
		t.Fatalf("dedup ratio %.2fx, want >= 2x (logical=%d stored=%d)",
			res.DedupRatio, res.LogicalBytes, res.StoredBytes)
	}
	if want := uint64(opts.EditFileSize); res.EditFullBytes != want || res.PromoteFullBytes != want {
		t.Fatalf("edit_full_bytes = %d, promote_full_bytes = %d, want edit_file_size = %d", res.EditFullBytes, res.PromoteFullBytes, want)
	}
	if res.EditDeltaBytes == 0 {
		t.Fatal("edit arm moved no bytes")
	}
	if res.EditDeltaBytes*10 >= res.EditFullBytes {
		t.Fatalf("chunk delta moved %d bytes, >= 10%% of the %d-byte whole-file refresh (%.1f%%)",
			res.EditDeltaBytes, res.EditFullBytes, res.EditDeltaPct)
	}
	if res.PromoteDeltaBytes == 0 {
		t.Fatal("promote arm fetched no bytes")
	}
	if res.PromoteDeltaBytes*10 >= res.PromoteFullBytes {
		t.Fatalf("block-level promote repair fetched %d bytes, >= 10%% of the %d-byte whole-file fetch (%.1f%%)",
			res.PromoteDeltaBytes, res.PromoteFullBytes, res.PromoteDeltaPct)
	}
	// The pulls' exact traffic, as DESIGN.md §13 quotes it: the refreshed
	// replica (edit, kosha bytes both ways) and the promoted heir (promote,
	// the blocks it fetched) both pull through one reconcile.
	if res.EditDeltaBytes != 49540 || res.PromoteDeltaBytes != 71372 {
		t.Fatalf("edit_delta_bytes = %d, promote_delta_bytes = %d, want 49540 and 71372", res.EditDeltaBytes, res.PromoteDeltaBytes)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	for _, row := range []string{"dedup ratio", "chunk delta", "block-level repair"} {
		if !strings.Contains(sb.String(), row) {
			t.Fatalf("printout missing %q row", row)
		}
	}
	var jb strings.Builder
	if err := FprintJSON(&jb, res); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"dedup_ratio", "edit_delta_bytes", "promote_delta_bytes"} {
		if !strings.Contains(jb.String(), field) {
			t.Fatalf("JSON missing %q", field)
		}
	}
	var cb strings.Builder
	res.FprintCSV(&cb)
	if !strings.Contains(cb.String(), "promote_fetch_bytes") {
		t.Fatal("CSV missing promote row")
	}
}
