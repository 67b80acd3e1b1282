package localfs

import (
	"errors"
	"path"
	"reflect"
	"strings"
	"testing"
)

// refSplit is the reference the path walker must agree with: clean the
// path with path.Clean, split it with strings.Split, check every component
// with checkName.
func refSplit(p string) ([]string, error) {
	clean := path.Clean("/" + p)
	if clean == "/" {
		return nil, nil
	}
	parts := strings.Split(clean[1:], "/")
	for _, part := range parts {
		if err := checkName(part); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// walkParts collects what walkPath yields for p.
func walkParts(p string) (string, []string, error) {
	clean, w, err := walkPath(p)
	if err != nil {
		return "", nil, err
	}
	var parts []string
	for part, ok := w.next(); ok; part, ok = w.next() {
		parts = append(parts, part)
	}
	return clean, parts, nil
}

func checkWalkAgrees(t *testing.T, p string) {
	clean, got, err := walkParts(p)
	want, werr := refSplit(p)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("walkPath(%q) err = %v, reference %v", p, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walkPath(%q) = %q, reference %q", p, got, want)
	}
	if ref := path.Clean("/" + p); clean != ref || Clean(p) != ref {
		t.Fatalf("clean path of %q = %q (Clean %q), reference %q", p, clean, Clean(p), ref)
	}
}

var pathCases = []string{
	"", "/", "//", ".", "..", "/..", "/../a", "a", "a/b", "/a/b", "/a/b/",
	"/a//b", "/a/./b", "/a/../b", "/a/b/.", "/a/b/..", "./a", "/.a/..b/...",
	"/a/" + strings.Repeat("x", MaxNameLen), "/a/" + strings.Repeat("x", MaxNameLen+1) + "/b",
	"/" + strings.Repeat("y", MaxNameLen+1) + "/../c",
}

// FuzzPathWalk checks the in-place component walker and Clean against
// path.Clean + strings.Split + checkName on any input. Plain go test runs
// the seed cases.
func FuzzPathWalk(f *testing.F) {
	for _, p := range pathCases {
		f.Add(p)
	}
	f.Fuzz(checkWalkAgrees)
}

func TestRemoveAllNotifiesCleanPath(t *testing.T) {
	f := newFS(0)
	if err := f.WriteFile("/a/b/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var got []string
	f.OnMutation(func(p string) { got = append(got, p) })
	if err := f.RemoveAll("a//b/"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "/a/b" {
		t.Fatalf("notifications %q, want [/a/b]", got)
	}
	if _, err := f.LookupPath("/a/b/f"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("lookup after RemoveAll err = %v", err)
	}
}

func TestMutationPathsAreClean(t *testing.T) {
	f := newFS(0)
	var got []string
	f.OnMutation(func(p string) {
		if path.Clean(p) != p || !strings.HasPrefix(p, "/") {
			t.Errorf("notification path %q is not clean", p)
		}
		got = append(got, p)
	})
	dir, err := f.MkdirAll("a/./b//c/")
	if err != nil {
		t.Fatal(err)
	}
	fa, _, err := f.Create(dir.Ino, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Write(fa.Ino, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	want := []string{"/a/b/c", "/a/b/c/f", "/a/b/c/f"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("notifications %q, want %q", got, want)
	}
}

func benchTree(b testing.TB) (*FS, Attr) {
	f := newFS(0)
	if err := f.WriteFile("/home/user/src/proj/file.c", []byte("int main;")); err != nil {
		b.Fatal(err)
	}
	a, err := f.LookupPath("/home/user/src/proj/file.c")
	if err != nil {
		b.Fatal(err)
	}
	return f, a
}

func BenchmarkLookupPath(b *testing.B) {
	f, _ := benchTree(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.LookupPath("/home/user/src/proj/file.c"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverwriteNotify(b *testing.B) {
	f, a := benchTree(b)
	f.OnMutation(func(string) {})
	data := []byte("int main(void);")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Write(a.Ino, 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialWrite2MiB writes a 2 MiB file in 32 KiB appends, the
// way a mount streams one to its primary.
func BenchmarkSequentialWrite2MiB(b *testing.B) {
	const fileSize = 2 << 20
	f := newFS(0)
	chunk := make([]byte, blockSize)
	b.SetBytes(fileSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, _, err := f.Create(RootIno, "big", 0o644, false)
		if err != nil {
			b.Fatal(err)
		}
		for off := int64(0); off < fileSize; off += blockSize {
			if _, _, err := f.Write(a.Ino, off, chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRead32K reads aligned 32 KiB blocks of a 2 MiB file into a
// reused reply buffer, as the NFS server does into its reply frame.
func BenchmarkRead32K(b *testing.B) {
	const fileSize = 2 << 20
	f := newFS(0)
	a := mustCreate(b, f, RootIno, "big")
	if _, _, err := f.Write(a.Ino, 0, make([]byte, fileSize)); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, 64+blockSize)
	b.SetBytes(blockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := int64(i%(fileSize/blockSize)) * blockSize
		if _, _, _, err := f.ReadAppend(dst[:64], a.Ino, off, blockSize); err != nil {
			b.Fatal(err)
		}
	}
}
