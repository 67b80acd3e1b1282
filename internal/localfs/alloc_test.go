//go:build !race

// The race detector changes what the runtime allocates, so the budgets hold
// for ordinary builds only.

package localfs

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/simnet"
)

// TestLookupPathCleanAllocs pins the in-place walk: looking up a path that
// is already clean allocates nothing.
func TestLookupPathCleanAllocs(t *testing.T) {
	f, _ := benchTree(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.LookupPath("/home/user/src/proj/file.c"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupPath of a clean path allocates %.1f objects, want 0", allocs)
	}
}

// TestOverwriteNotifyAllocs pins the mutation path: overwriting a file with
// one subscriber allocates at most the notification path.
func TestOverwriteNotifyAllocs(t *testing.T) {
	f, a := benchTree(t)
	var last string
	f.OnMutation(func(p string) { last = p })
	data := []byte("int main(void);")
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := f.Write(a.Ino, 0, data); err != nil {
			t.Fatal(err)
		}
	})
	if last != "/home/user/src/proj/file.c" {
		t.Fatalf("notified %q", last)
	}
	if allocs > 1 {
		t.Fatalf("overwrite with one subscriber allocates %.1f objects, want <= 1", allocs)
	}
}

// allocBytes returns the bytes fn allocates per call, averaged over runs
// after one warm-up call.
func allocBytes(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSequentialWriteAllocBytes pins the block store's write rule: a 2 MiB
// file written in 32 KiB appends allocates its blocks and a small index,
// not a contiguous buffer regrown (and recopied) as the file grows.
func TestSequentialWriteAllocBytes(t *testing.T) {
	const fileSize = 2 << 20
	f := newFS(0)
	chunk := make([]byte, blockSize)
	per := allocBytes(5, func() {
		a, _, err := f.Create(RootIno, "big", 0o644, false)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < fileSize; off += blockSize {
			if _, _, err := f.Write(a.Ino, off, chunk); err != nil {
				t.Fatal(err)
			}
		}
	})
	if ratio := per / fileSize; ratio > 1.05 {
		t.Fatalf("writing 2 MiB in 32 KiB appends allocates %.0f bytes, %.2fx the file, want <= 1.05x", per, ratio)
	}
}

// TestSmallFileAllocs pins the inline index: a file of up to three blocks,
// written in 32 KiB chunks, allocates one object per block and no index.
func TestSmallFileAllocs(t *testing.T) {
	f := newFS(0)
	chunk := make([]byte, blockSize)
	allocs := testing.AllocsPerRun(100, func() {
		a, _, err := f.Create(RootIno, "small", 0o644, false)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < inlineBlocks*blockSize; off += blockSize {
			if _, _, err := f.Write(a.Ino, off, chunk); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != inlineBlocks {
		t.Fatalf("writing a %d-block file allocates %.1f objects, want %d", inlineBlocks, allocs, inlineBlocks)
	}
}

// TestAlignedOverwriteAllocs pins the overwrite rule: rewriting a stored
// block in place allocates nothing (with no subscriber to notify).
func TestAlignedOverwriteAllocs(t *testing.T) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "f")
	chunk := make([]byte, blockSize)
	for off := int64(0); off < 3*blockSize; off += blockSize {
		if _, _, err := f.Write(a.Ino, off, chunk); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := f.Write(a.Ino, blockSize, chunk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("aligned 32 KiB overwrite allocates %.1f objects, want 0", allocs)
	}
}

// TestHolesNotMaterialized pins the hole rule on an unlimited store: a
// SETATTR to MaxFileSize and a 1-byte write at its last byte each allocate
// a block at most, not the terabyte gap, and the gap reads as zeros. Used
// still charges the full sizes.
func TestHolesNotMaterialized(t *testing.T) {
	f := New(0, simnet.Disk7200)
	a := mustCreate(t, f, RootIno, "extended")
	b := mustCreate(t, f, RootIno, "written")
	size := MaxFileSize
	if n := allocBytes(1, func() {
		if _, _, err := f.Setattr(a.Ino, SetAttr{Size: &size}); err != nil {
			t.Fatal(err)
		}
	}); n >= 64<<10 {
		t.Fatalf("SETATTR size=MaxFileSize allocates %.0f bytes", n)
	}
	if n := allocBytes(1, func() {
		if _, _, err := f.Write(b.Ino, MaxFileSize-1, []byte{7}); err != nil {
			t.Fatal(err)
		}
	}); n >= 64<<10 {
		t.Fatalf("1-byte WRITE at MaxFileSize-1 allocates %.0f bytes", n)
	}
	if n := len(f.inodes[b.Ino].data.blocks); n != 1 {
		t.Fatalf("a 1-byte write into a hole stores %d blocks, want 1", n)
	}
	if f.Used() != 2*MaxFileSize {
		t.Fatalf("Used = %d, want %d", f.Used(), 2*MaxFileSize)
	}
	got, eof, _, err := f.Read(a.Ino, MaxFileSize/2, 4096)
	if err != nil || eof || !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatalf("hole read: %d bytes, eof %v, err %v, want 4096 zeros", len(got), eof, err)
	}
	got, eof, _, err = f.Read(b.Ino, MaxFileSize-3*blockSize, 4*blockSize)
	if err != nil || !eof || len(got) != 3*blockSize || got[len(got)-1] != 7 || !bytes.Equal(got[:len(got)-1], make([]byte, len(got)-1)) {
		t.Fatalf("read of the written tail: %d bytes, eof %v, err %v", len(got), eof, err)
	}
}
