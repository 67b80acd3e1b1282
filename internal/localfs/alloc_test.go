//go:build !race

// The race detector changes what the runtime allocates, so the budgets hold
// for ordinary builds only.

package localfs

import "testing"

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
