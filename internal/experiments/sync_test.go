package experiments

import (
	"strings"
	"testing"
)

// TestSyncDeltaUnderTenPercent is the anti-entropy acceptance bar: touching
// one file in a 100-file replicated subtree must refresh the replica for
// less than 10% of the bytes a full-tree re-push moves.
func TestSyncDeltaUnderTenPercent(t *testing.T) {
	opts := DefaultSyncOptions()
	res, err := RunSync(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullBytes == 0 || res.DeltaBytes == 0 {
		t.Fatalf("arm moved no bytes: full=%d delta=%d", res.FullBytes, res.DeltaBytes)
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
	// The simulated byte counts are deterministic: pin the live protocol's
	// traffic exactly, and the full re-push at the tree's payload.
	if res.DeltaBytes != 4820 {
		t.Fatalf("delta sync moved %d bytes, want exactly 4820", res.DeltaBytes)
	}
	if want := uint64(opts.Files * opts.FileSize); res.FullBytes != want {
		t.Fatalf("full re-push bytes %d, want the tree's payload %d", res.FullBytes, want)
	}
	var sb strings.Builder
	res.Fprint(&sb, opts)
	if !strings.Contains(sb.String(), "merkle delta") {
		t.Fatal("printout missing delta row")
	}
	var jb strings.Builder
	if err := res.FprintJSON(&jb); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"full_bytes", "delta_bytes", "delta_pct"} {
		if !strings.Contains(jb.String(), field) {
			t.Fatalf("JSON missing %q", field)
		}
	}
}
