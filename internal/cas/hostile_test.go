package cas

import (
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestCodecHostileCounts feeds GetHashes and GetBools a frame that claims
// wire.MaxItems elements and then ends: each must fail without
// pre-allocating for the claimed count (32 MiB of hashes at the old code)
// or looping through it.
func TestCodecHostileCounts(t *testing.T) {
	frame := []byte{0, 0x10, 0, 0} // count = wire.MaxItems, then nothing
	decoders := map[string]func() (int, error){
		"hashes": func() (int, error) { d := wire.NewDecoder(frame); return len(GetHashes(d)), d.Err() },
		"bools":  func() (int, error) { d := wire.NewDecoder(frame); return len(GetBools(d)), d.Err() },
	}
	for name, decode := range decoders {
		t.Run(name, func(t *testing.T) {
			perDecode := allocBytesPerRun(200, func() {
				if n, err := decode(); n != 0 || err == nil {
					t.Fatalf("hostile count decoded %d elements, err %v", n, err)
				}
			})
			if limit := 16 * len(frame); perDecode > float64(limit) {
				t.Fatalf("decoding a %d-byte hostile frame allocates %.0f bytes, want <= %d", len(frame), perDecode, limit)
			}
		})
	}
}

// allocBytesPerRun reports the average heap bytes one call of f allocates.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
