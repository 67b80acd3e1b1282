package main

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // 10 samples above rank 990
		{999, 0.99, 990, false},  // rank 990 of 999 leaves only 9 above
		{1500, 0.99, 1485, true}, // 15 above
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

// fakeClock advances by a fixed step every time it is read.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	r := newRecorder()
	r.now = clk.now
	r.start() // t=1
	// core.write [2,11] holds simnet.transport [3,10], which holds nfs.WRITE
	// [4,9], which holds localfs.data [5,6] and localfs.data [7,8].
	op := r.beginOp("core.write")
	tr := r.begin("simnet.transport")
	srv := r.begin("nfs.WRITE")
	d1 := r.begin("localfs.data")
	r.end(d1)
	d2 := r.begin("localfs.data")
	r.end(d2)
	r.end(srv)
	r.end(tr)
	r.end(op)
	r.stop()

	ms := time.Millisecond
	for name, want := range map[string]time.Duration{
		"core.write":       2 * ms, // 9 - 7
		"simnet.transport": 2 * ms, // 7 - 5
		"nfs.WRITE":        3 * ms, // 5 - 1 - 1
		"localfs.data":     2 * ms, // 1 + 1
	} {
		if got := r.self[name]; got != want {
			t.Errorf("self[%s] = %v, want %v", name, got, want)
		}
	}
	if got := r.total["core.write"]; got != 9*ms {
		t.Errorf("total[core.write] = %v, want 9ms", got)
	}
	var sum time.Duration
	for _, d := range r.selfByLayer() {
		sum += d
	}
	if sum != r.rootDur || sum != 9*ms {
		t.Errorf("layer self times sum to %v, root spans to %v; want both 9ms", sum, r.rootDur)
	}
	if len(r.spans) != 5 || r.spans[4].Parent != 2 || r.spans[2].Parent != 1 || r.spans[0].Parent != -1 {
		t.Errorf("span parents = %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.Op != 1 {
			t.Errorf("span %s has op %d, want 1", s.Name, s.Op)
		}
	}
}

func TestSpansOutsideWindowAreNotRecorded(t *testing.T) {
	r := newRecorder()
	o := r.begin("core.read")
	r.end(o)
	r.start()
	r.stop()
	o = r.begin("core.read")
	r.end(o)
	if len(r.spans) != 0 || r.calls["core.read"] != 0 {
		t.Fatalf("recorded %d spans outside the window", len(r.spans))
	}
}

func req(p uint32) []byte { return binary.BigEndian.AppendUint32(nil, p) }

func TestProcNames(t *testing.T) {
	nfsProcs := map[nfs.Proc]string{
		nfs.ProcNull: "NULL", nfs.ProcGetattr: "GETATTR", nfs.ProcSetattr: "SETATTR",
		nfs.ProcLookup: "LOOKUP", nfs.ProcAccess: "ACCESS", nfs.ProcReadlink: "READLINK",
		nfs.ProcRead: "READ", nfs.ProcWrite: "WRITE", nfs.ProcCreate: "CREATE",
		nfs.ProcMkdir: "MKDIR", nfs.ProcSymlink: "SYMLINK", nfs.ProcRemove: "REMOVE",
		nfs.ProcRmdir: "RMDIR", nfs.ProcRename: "RENAME", nfs.ProcReaddir: "READDIR",
		nfs.ProcReaddirPlus: "READDIRPLUS", nfs.ProcFSStat: "FSSTAT", nfs.ProcFSInfo: "FSINFO",
		nfs.ProcReadStream: "READSTREAM", nfs.ProcWriteBatch: "WRITEBATCH", nfs.ProcMountRoot: "MNT",
	}
	for p, name := range nfsProcs {
		if got := procName(nfs.Service, req(uint32(p))); got != "nfs."+name {
			t.Errorf("nfs proc %d = %q, want nfs.%s", p, got, name)
		}
	}
	kosha := []string{"", "core.rpc.apply", "core.rpc.mirror", "repl.rpc.stat_tree", "repl.rpc.untrack",
		"repl.rpc.promote", "repl.rpc.replicas", "repl.rpc.tree_digest", "repl.rpc.dir_digests",
		"repl.rpc.chunk_manifest", "repl.rpc.chunk_fetch"}
	for p := 1; p < len(kosha); p++ {
		if got := procName("kosha", req(uint32(p))); got != kosha[p] {
			t.Errorf("kosha proc %d = %q, want %q", p, got, kosha[p])
		}
	}
	pastryProcs := []string{"ping", "next-hop", "get-state", "get-leaf-set", "notify", "remove-node", "get-row"}
	for p, name := range pastryProcs {
		if got := procName(pastry.Service, req(uint32(p))); got != "pastry.rpc."+name {
			t.Errorf("pastry proc %d = %q, want pastry.rpc.%s", p, got, name)
		}
	}
	for _, tc := range []struct{ service, want string }{
		{"kosha", "repl.rpc.proc99"}, {"koshactl", "koshactl.rpc"},
	} {
		if got := procName(tc.service, req(99)); got != tc.want {
			t.Errorf("%s proc 99 = %q, want %q", tc.service, got, tc.want)
		}
	}
	if got := procName(nfs.Service, []byte{1, 2}); got != "nfs.short" {
		t.Errorf("short request = %q, want nfs.short", got)
	}
}

// TestTracedStoreKeepsDigestsFresh applies the same mutations to a plain
// store and to a traced one, each under a merkle digest cache, and requires
// equal digests after every step. A wrapper that hid the store's mutation
// notifications would leave its cache serving the digest from before a
// write.
func TestTracedStoreKeepsDigestsFresh(t *testing.T) {
	plain := localfs.New(0, simnet.Disk7200)
	rec := newRecorder()
	rec.start()
	traced := &tracedStore{fs: localfs.New(0, simnet.Disk7200), rec: rec}
	stores := []localfs.FileSystem{plain, traced}
	caches := []*merkle.Cache{merkle.NewCache(plain), merkle.NewCache(traced)}

	steps := []func(fs localfs.FileSystem) error{
		func(fs localfs.FileSystem) error { _, err := fs.MkdirAll("/d/e"); return err },
		func(fs localfs.FileSystem) error { return fs.WriteFile("/d/e/a", []byte("first")) },
		func(fs localfs.FileSystem) error { return fs.WriteFile("/d/b", []byte("second")) },
		func(fs localfs.FileSystem) error { return fs.WriteFile("/d/e/a", []byte("first, edited")) },
		func(fs localfs.FileSystem) error {
			a, err := fs.LookupPath("/d/e/a")
			if err != nil {
				return err
			}
			_, _, err = fs.Write(a.Ino, 2, []byte("XY"))
			return err
		},
		func(fs localfs.FileSystem) error {
			d, err := fs.LookupPath("/d")
			if err != nil {
				return err
			}
			_, err = fs.Remove(d.Ino, "b")
			return err
		},
	}
	for i, step := range steps {
		var digests []merkle.Digest
		for j, fs := range stores {
			if err := step(fs); err != nil {
				t.Fatalf("step %d on store %d: %v", i, j, err)
			}
			d, err := caches[j].DigestOf("/d")
			if err != nil {
				t.Fatalf("step %d: digest on store %d: %v", i, j, err)
			}
			digests = append(digests, d)
		}
		if digests[0] != digests[1] {
			t.Fatalf("step %d: traced store digest %x, plain %x", i, digests[1], digests[0])
		}
	}
	if rec.counts["localfs.write.calls"] != 1 || rec.calls["localfs.path"] == 0 {
		t.Errorf("traced store recorded %d data writes and %d path calls", rec.counts["localfs.write.calls"], rec.calls["localfs.path"])
	}
}
