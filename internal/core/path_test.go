package core

import (
	"path"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nfs"
	"repro/internal/pastry"
	"repro/internal/wire"
)

// refSplitVirtual is the reference SplitVirtual must agree with: clean with
// path.Clean, then strings.Split.
func refSplitVirtual(vpath string) []string {
	clean := path.Clean("/" + vpath)
	if clean == "/" {
		return nil
	}
	return strings.Split(clean[1:], "/")
}

func checkSplitVirtual(t *testing.T, vpath string) {
	parts := SplitVirtual(vpath)
	if want := refSplitVirtual(vpath); !reflect.DeepEqual(parts, want) {
		t.Fatalf("SplitVirtual(%q) = %q, reference %q", vpath, parts, want)
	}
	if got, want := JoinVirtual(parts), path.Clean("/"+vpath); got != want {
		t.Fatalf("JoinVirtual(SplitVirtual(%q)) = %q, want %q", vpath, got, want)
	}
	if d := virtualDepth(vpath); d != len(parts) {
		t.Fatalf("virtualDepth(%q) = %d, want %d", vpath, d, len(parts))
	}
	if got, want := pathComponents(vpath), len(strings.FieldsFunc(vpath, func(r rune) bool { return r == '/' })); got != want {
		t.Fatalf("pathComponents(%q) = %d, want %d", vpath, got, want)
	}
	for _, store := range []string{"", "/", "/\x01root"} {
		pl := Place{Store: store, Rest: parts}
		want := store
		if len(parts) > 0 {
			want = path.Join("/", store, path.Clean("/"+vpath))
		}
		if got := pl.PhysDir(); got != want {
			t.Fatalf("PhysDir of store %q rest %q = %q, want %q", store, parts, got, want)
		}
	}
}

// FuzzSplitVirtual checks SplitVirtual, JoinVirtual, virtualDepth,
// pathComponents and Place.PhysDir, which skip cleaning clean input,
// against path.Clean + strings.Split on any input. Plain go test runs the
// seed cases.
func FuzzSplitVirtual(f *testing.F) {
	for _, p := range []string{"", "/", ".", "..", "a", "/a", "/a/b", "/a/b/", "//a/./b/../c", "/..", "a//b", "/a/b/.", "/a/../b", "/.a/..b"} {
		f.Add(p)
	}
	f.Fuzz(checkSplitVirtual)
}

// TestSpanNameTable checks the precomputed span labels against the
// formatting they replace, for known and unknown procedures alike.
func TestSpanNameTable(t *testing.T) {
	for _, service := range []string{nfs.Service, KoshaService, pastry.Service, CtlService, "other"} {
		for proc := uint32(0); proc < 160; proc++ {
			req := []byte{0, 0, byte(proc >> 8), byte(proc)}
			if got, want := spanName(service, req), formatSpanName(service, proc); got != want {
				t.Fatalf("spanName(%s, %d) = %q, want %q", service, proc, got, want)
			}
		}
	}
	if got := spanName(nfs.Service, []byte{0}); got != nfs.Service {
		t.Fatalf("short request labelled %q", got)
	}
	if got := spanName(nfs.Service, []byte{0, 0, 0, byte(nfs.ProcLookup)}); got != "nfs.LOOKUP" {
		t.Fatalf("LOOKUP labelled %q", got)
	}
}

// TestReplyDecodersHostileCounts feeds each counted-vector reply decoder a
// frame that claims wire.MaxItems elements and then ends: each must fail
// without pre-allocating for the claimed count or looping through it.
func TestReplyDecodersHostileCounts(t *testing.T) {
	frame := []byte{0, 0x10, 0, 0} // count = wire.MaxItems, then nothing
	decoders := map[string]func() (int, error){
		"chunk-fetch": func() (int, error) { d := wire.NewDecoder(frame); return len(getChunkBlocks(d)), d.Err() },
		"replica-set": func() (int, error) { d := wire.NewDecoder(frame); return len(getAddrs(d)), d.Err() },
		"ctl-list":    func() (int, error) { d := wire.NewDecoder(frame); return len(getCtlDirEntries(d)), d.Err() },
		"ctl-peers":   func() (int, error) { d := wire.NewDecoder(frame); return len(getPeers(d)), d.Err() },
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
