package experiments

import (
	"strings"
	"testing"
)

// TestSyncDeltaUnderTenPercent is the anti-entropy acceptance bar: touching
// one file in a 100-file replicated subtree must refresh the replica for
// less than 10% of the tree's content bytes — what any full re-push would
// have to move before framing.
func TestSyncDeltaUnderTenPercent(t *testing.T) {
	opts := DefaultSyncOptions()
	res, err := RunSync(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(opts.Files * opts.FileSize); res.FullBytes != want {
		t.Fatalf("full_bytes = %d, want files x file_size = %d", res.FullBytes, want)
	}
	if res.DeltaBytes == 0 {
		t.Fatal("the refresh moved no bytes")
	}
	if res.DeltaBytes*10 >= res.FullBytes {
		t.Fatalf("delta sync moved %d bytes, >= 10%% of the %d-byte full push (%.1f%%)",
			res.DeltaBytes, res.FullBytes, res.DeltaPct)
	}
	if res.FilesSent != 1 {
		t.Fatalf("delta sync shipped %d files, want exactly the touched one", res.FilesSent)
	}
	if res.FilesSkipped < uint64(opts.Files-1) {
		t.Fatalf("delta sync skipped %d files, want >= %d", res.FilesSkipped, opts.Files-1)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "merkle delta") {
		t.Fatal("printout missing delta row")
	}
	var jb strings.Builder
	if err := FprintJSON(&jb, res); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"full_bytes", "delta_bytes", "delta_pct"} {
		if !strings.Contains(jb.String(), field) {
			t.Fatalf("JSON missing %q", field)
		}
	}
}
