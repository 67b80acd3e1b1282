package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/diskfs"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// ctlCluster builds a 3-node simnet cluster over stores made by newStore,
// attaches the koshactl service to every node, and writes one file through
// node 0, so that reads, listings and trace requests have something to find.
func ctlCluster(tb testing.TB, cfg Config, newStore func(i int) localfs.FileSystem) []*Node {
	tb.Helper()
	net := simnet.New(simnet.LAN100)
	state := uint64(61)
	nodes := make([]*Node, 3)
	for i := range nodes {
		addr := simnet.Addr(fmt.Sprintf("c%d", i))
		nodes[i] = NewNodeWithStore(addr, id.Rand128(&state), net, cfg, newStore(i))
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nodes[i].Join(boot); err != nil {
			tb.Fatalf("join node %d: %v", i, err)
		}
		nodes[i].AttachCtl()
	}
	stabilizeAll(nodes)
	if _, err := nodes[0].NewMount().WriteFile("/fuzz/seed.txt", []byte("seed")); err != nil {
		tb.Fatal(err)
	}
	return nodes
}

// ctlBackends returns node 0 of one ctlCluster per store backend: the
// in-memory localfs and the on-disk diskfs.
func ctlBackends(tb testing.TB, cfg Config) map[string]*Node {
	c := cfg.withDefaults()
	dir := tb.TempDir()
	return map[string]*Node{
		"localfs": ctlCluster(tb, cfg, func(int) localfs.FileSystem { return localfs.New(c.Capacity, c.Disk) })[0],
		"diskfs": ctlCluster(tb, cfg, func(i int) localfs.FileSystem {
			fs, err := diskfs.Open(filepath.Join(dir, fmt.Sprint(i)), c.Capacity, c.Disk)
			if err != nil {
				tb.Fatal(err)
			}
			return fs
		})[0],
	}
}

// ctlFrame encodes one koshactl request the way CtlClient does.
func ctlFrame(proc uint32, vpath string, extra func(*wire.Encoder)) []byte {
	e := wire.NewEncoder(64)
	e.PutUint32(proc)
	e.PutString(vpath)
	if extra != nil {
		extra(e)
	}
	return append([]byte(nil), e.Bytes()...)
}

func countArg(n uint32) func(*wire.Encoder) { return func(e *wire.Encoder) { e.PutUint32(n) } }

// ctlSeed is one valid koshactl request, named by its procedure.
type ctlSeed struct {
	proc  string
	frame []byte
}

// ctlSeedFrames returns one valid request per koshactl procedure; the
// trace-frag request names trace (hi, lo).
func ctlSeedFrames(hi, lo uint64) []ctlSeed {
	return []ctlSeed{
		{"read", ctlFrame(ctlRead, "/fuzz/seed.txt", nil)},
		{"write", ctlFrame(ctlWrite, "/fuzz/new.txt", func(e *wire.Encoder) { e.PutOpaque([]byte("data")) })},
		{"list", ctlFrame(ctlList, "/fuzz", nil)},
		{"mkdir-all", ctlFrame(ctlMkdirAll, "/fuzz/a/b", nil)},
		{"remove-all", ctlFrame(ctlRemoveAll, "/fuzz/a", nil)},
		{"stat", ctlFrame(ctlStat, "/fuzz/seed.txt", nil)},
		{"statfs", ctlFrame(ctlStatfs, "", nil)},
		{"peers", ctlFrame(ctlPeers, "", nil)},
		{"stats", ctlFrame(ctlStats, "", nil)},
		{"trace", ctlFrame(ctlTrace, "", countArg(4))},
		{"trace-frag", ctlFrame(ctlTraceFrag, "", func(e *wire.Encoder) { e.PutUint64(hi); e.PutUint64(lo) })},
		{"samples", ctlFrame(ctlSamples, "", countArg(0))},
		{"slow", ctlFrame(ctlSlow, "", countArg(0xFFFFFFFF))},
	}
}

// lastTraceID returns the id of the newest op node n traced.
func lastTraceID(tb testing.TB, n *Node) (hi, lo uint64) {
	recs := n.Tracer().Recent(1)
	if len(recs) == 0 {
		tb.Fatal("node traced no ops")
	}
	return recs[0].Hi, recs[0].Lo
}

// TestCtlSeedFramesServe checks that every seed of FuzzCtlRequest is a valid
// request: each procedure answers ok on both store backends.
func TestCtlSeedFramesServe(t *testing.T) {
	for backend, n := range ctlBackends(t, Config{Replicas: 1, SlowOpNS: 1}) {
		hi, lo := lastTraceID(t, n)
		for _, seed := range ctlSeedFrames(hi, lo) {
			reply, _, err := n.handleCtl("tester", seed.frame)
			if err != nil {
				t.Fatalf("%s: %s: %v", backend, seed.proc, err)
			}
			if d := wire.NewDecoder(reply); !d.Bool() {
				t.Fatalf("%s: %s answered not ok: %s", backend, seed.proc, d.String())
			}
		}
	}
}

// FuzzCtlRequest sends arbitrary frames to the koshactl handler of a node
// on each store backend and requires that no frame panics the node. The
// seeds are one valid request per procedure. Plain go test runs the seeds.
func FuzzCtlRequest(f *testing.F) {
	nodes := ctlBackends(f, Config{Replicas: 1, SlowOpNS: 1, Capacity: 64 << 20})
	hi, lo := lastTraceID(f, nodes["localfs"])
	for _, seed := range ctlSeedFrames(hi, lo) {
		f.Add(seed.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, n := range nodes {
			n.handleCtl("fuzzer", frame)
		}
	})
}

// TestCtlTraceCountBounded sends trace and slow requests whose count is
// 0xFFFFFFFF: each must return what a request for the whole ring returns
// and allocate no more doing so, not size anything by the count.
func TestCtlTraceCountBounded(t *testing.T) {
	const ring = 8
	n := ctlCluster(t, Config{Replicas: 1, TraceBufSize: ring, SlowOpNS: 1}, func(int) localfs.FileSystem {
		return localfs.New(0, simnet.Disk7200)
	})[0]
	m := n.NewMount()
	for i := 0; i < 3*ring; i++ {
		if _, _, _, err := m.LookupPath("/fuzz/seed.txt"); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(rootsOf(n.Tracer().Recent(0))); got != ring {
		t.Fatalf("op ring holds %d ops, want it full at %d", got, ring)
	}
	if got := len(rootsOf(n.Tracer().Slow(0))); got < ring {
		t.Fatalf("flight recorder holds %d ops, want >= %d", got, ring)
	}
	serve := func(frame []byte) (reply []byte, allocated uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reply, _, err := n.handleCtl("tester", frame)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return reply, after.TotalAlloc - before.TotalAlloc
	}
	for _, proc := range []uint32{ctlTrace, ctlSlow} {
		whole, wholeBytes := serve(ctlFrame(proc, "", countArg(0)))
		huge, hugeBytes := serve(ctlFrame(proc, "", countArg(0xFFFFFFFF)))
		if !bytes.Equal(huge, whole) {
			t.Fatalf("proc %d: count 0xFFFFFFFF answered differently from the whole ring", proc)
		}
		// The slack absorbs pooled codec buffers that the race detector's
		// sync.Pool drops at random; sizing by the count costs megabytes.
		if hugeBytes > 2*wholeBytes+64<<10 {
			t.Fatalf("proc %d: count 0xFFFFFFFF allocated %d B, the whole ring %d B", proc, hugeBytes, wholeBytes)
		}
	}
}
