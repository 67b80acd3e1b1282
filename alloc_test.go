//go:build !race

// The race detector changes what the runtime allocates, so the budgets hold
// for ordinary builds only.

package main

import (
	"runtime"
	"testing"

	"repro/kosha"
)

const payload32K = 32 << 10

// allocPerOp runs op warm times, then reports the heap bytes one call
// allocates on average over runs more.
func allocPerOp(warm, runs int, op func(i int)) float64 {
	for i := 0; i < warm; i++ {
		op(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op(warm + i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWrite32KAllocBudget pins the zero-copy write path through kosha.Mount
// on 8 nodes with K=1: the request frames come from the encoder pool, the
// primary and the mirror decode the payload in place, and the one mirror
// frame is shared by the fan-out, so a 32 KiB write allocates at most 1.5x
// its payload (it was about 4.6x with a copy at every hop).
func TestWrite32KAllocBudget(t *testing.T) {
	c, err := kosha.NewCluster(kosha.ClusterOptions{Nodes: 8, Seed: 3, Config: kosha.Config{Replicas: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	dir, _, err := m.MkdirAll("/budget")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, payload32K)
	perOp := allocPerOp(64, 256, func(i int) {
		if _, _, err := m.Write(fvh, int64(i%64)*payload32K, data); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 1.5 * payload32K; perOp > limit {
		t.Fatalf("32 KiB write allocates %.0f B/op, budget %.0f (1.5x payload)", perOp, limit)
	}
}

// TestRead32KAllocBudget pins the zero-copy read path: the store reads
// straight into the reply frame and the mount returns a view of it, so a
// 32 KiB read allocates that one frame plus bookkeeping. The frame holds
// 12 header bytes besides the payload, and Go rounds allocations above
// 32 KiB up to whole 8 KiB pages, so the frame alone costs 40960 B (1.25x
// payload). Getting under that would need pooled reply frames, which the
// give rule for replies rules out. The budget is therefore 1.3x payload.
func TestRead32KAllocBudget(t *testing.T) {
	c, err := kosha.NewCluster(kosha.ClusterOptions{Nodes: 8, Seed: 4, Config: kosha.Config{Replicas: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	if _, err := m.WriteFile("/budget/f", make([]byte, 2<<20)); err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.LookupPath("/budget/f")
	if err != nil {
		t.Fatal(err)
	}
	perOp := allocPerOp(64, 256, func(i int) {
		data, _, _, err := m.Read(fvh, int64(i%64)*payload32K, payload32K)
		if err != nil || len(data) != payload32K {
			t.Fatalf("read %d bytes, err %v", len(data), err)
		}
	})
	if limit := 1.3 * payload32K; perOp > limit {
		t.Fatalf("32 KiB read allocates %.0f B/op, budget %.0f (1.3x payload)", perOp, limit)
	}
}

// TestWrite32KAllocCount pins the object count of BenchmarkKoshaWrite32K's
// path. The store walks clean paths in place, builds each mutation
// notification path once, and the digest cache and block index no longer
// re-clean it, so a 32 KiB write through the primary and its mirror
// allocates at most 30 objects (59 when each layer rebuilt the path).
func TestWrite32KAllocCount(t *testing.T) {
	c, err := kosha.NewCluster(kosha.ClusterOptions{Nodes: 8, Seed: 3, Config: kosha.Config{Replicas: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	dir, _, err := m.MkdirAll("/bench")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, payload32K)
	i := 0
	allocs := testing.AllocsPerRun(256, func() {
		if _, _, err := m.Write(fvh, int64(i%64)*payload32K, data); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 30 {
		t.Fatalf("32 KiB write allocates %.1f objects/op, budget 30", allocs)
	}
}

// TestLookupPathAllocCount pins BenchmarkKoshaLookup's warm path: a
// four-component Mount.LookupPath resolves through the placement cache and
// NFS LOOKUPs on the storage node. Clean virtual paths are split and joined
// without re-cleaning, the client walks components in place and decodes
// replies into a stack decoder, and span labels come from a table, so it
// allocates at most 24 objects (33 before).
func TestLookupPathAllocCount(t *testing.T) {
	c, err := kosha.NewCluster(kosha.ClusterOptions{Nodes: 8, Seed: 5, Config: kosha.Config{Replicas: 1, DistributionLevel: 2}})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Mount(0)
	if _, err := m.WriteFile("/a/b/c/file.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(256, func() {
		if _, _, _, err := m.LookupPath("/a/b/c/file.txt"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Fatalf("warm LookupPath allocates %.1f objects/op, budget 24", allocs)
	}
}
