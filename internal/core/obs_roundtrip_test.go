package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCtlStatsTraceRoundTrip drives a workload through the virtual mount and
// then reads the node's observability surface back through the CTL protocol,
// checking the two cross-layer invariants the stats surface promises:
//
//  1. the per-procedure RPC latency histograms account for exactly the RPCs
//     the node's NFS client issued (one shared registry, no double counting);
//  2. a LOOKUP trace that recorded route hops ends at the node that served
//     the final NFS RPC (the root's hop children and its ServedBy agree).
func TestCtlStatsTraceRoundTrip(t *testing.T) {
	_, nodes := testCluster(t, 8, 97, Config{Replicas: 2})
	for _, nd := range nodes {
		nd.AttachCtl()
	}

	// Populate through node 0, then resolve everything freshly through node 5
	// so its traces include overlay route hops (nothing is in its caches).
	m0 := nodes[0].NewMount()
	const dirs = 4
	for i := 0; i < dirs; i++ {
		p := fmt.Sprintf("/proj%d/file.txt", i)
		if _, err := m0.WriteFile(p, []byte("observable")); err != nil {
			t.Fatalf("populate %s: %v", p, err)
		}
	}
	m5 := nodes[5].NewMount()
	for i := 0; i < dirs; i++ {
		p := fmt.Sprintf("/proj%d/file.txt", i)
		if _, _, _, err := m5.LookupPath(p); err != nil {
			t.Fatalf("lookup %s: %v", p, err)
		}
	}

	ctl := &CtlClient{Net: nodes[0].net, From: nodes[0].Addr(), To: nodes[5].Addr()}
	payload, _, err := ctl.Stats()
	if err != nil {
		t.Fatalf("ctl stats: %v", err)
	}
	if payload.Addr != string(nodes[5].Addr()) || payload.NodeID == "" {
		t.Fatalf("payload identity addr=%q node_id=%q", payload.Addr, payload.NodeID)
	}

	// Invariant 1: Σ rpc.<PROC> histogram counts == nfs.rpcs == what the
	// node's own NFS client reports.
	var rpcHist uint64
	for name, h := range payload.Stats.Hists {
		if strings.HasPrefix(name, "rpc.") {
			rpcHist += h.Count
		}
	}
	rpcs := payload.Stats.Counters["nfs.rpcs"]
	if rpcHist != rpcs {
		t.Errorf("rpc histogram counts sum to %d, nfs.rpcs counter is %d", rpcHist, rpcs)
	}
	if got := nodes[5].NFSStats().RPCs; rpcs != got {
		t.Errorf("snapshot nfs.rpcs = %d, client reports %d", rpcs, got)
	}
	if rpcs == 0 {
		t.Error("node 5 issued no NFS RPCs; workload did not exercise the client")
	}
	if c := payload.Stats.Hists["op."+obs.OpLookup].Count; c < dirs {
		t.Errorf("op.LOOKUP histogram count = %d, want >= %d", c, dirs)
	}

	// Invariant 2: clean single-resolution LOOKUP traces with hops end at
	// ServedBy. Failover or multi-target ops may legitimately diverge, so
	// only clean lookups are asserted on — but some must exist.
	recs, _, err := ctl.TraceDump(0)
	if err != nil {
		t.Fatalf("ctl trace dump: %v", err)
	}
	checked := 0
	for _, at := range obs.Assemble(recs) {
		root := at.Root()
		if root == nil {
			t.Fatalf("trace %s dumped without its root record", obs.FormatTraceID(at.Hi, at.Lo))
		}
		if root.Name != obs.OpLookup || root.Err != "" || root.Failovers != 0 || root.ServedBy == "" {
			continue
		}
		var last string
		at.Walk(func(depth int, n *obs.TraceNode) {
			if n.Span.Name == obs.SpanHop && n.Span.Parent == root.Span {
				last = n.Span.Node
			}
		})
		if last == "" {
			continue
		}
		checked++
		if last != root.ServedBy {
			t.Errorf("trace %s (%s): hop list ends at %s, served by %s",
				obs.FormatTraceID(at.Hi, at.Lo), root.Path, last, root.ServedBy)
		}
	}
	if checked == 0 {
		t.Fatal("no clean LOOKUP traces with route hops retained")
	}

	// Bounded dumps come back newest first: the two most recent ops are the
	// last two lookups, and they head the full dump in the same order.
	two, _, err := ctl.TraceDump(2)
	if err != nil {
		t.Fatalf("TraceDump(2): %v", err)
	}
	roots := rootsOf(two)
	if len(roots) != 2 {
		t.Fatalf("TraceDump(2) = %d ops, want 2", len(roots))
	}
	all := rootsOf(recs)
	for i, want := range []string{fmt.Sprintf("/proj%d/file.txt", dirs-1), fmt.Sprintf("/proj%d/file.txt", dirs-2)} {
		if roots[i].Path != want || roots[i] != all[i] {
			t.Errorf("trace dump not newest-first: op %d is %s %s, want LOOKUP %s", i, roots[i].Name, roots[i].Path, want)
		}
	}
}

// rootsOf returns the op roots (Parent 0) among dumped records, in order.
func rootsOf(recs []obs.SpanRecord) []obs.SpanRecord {
	var roots []obs.SpanRecord
	for _, r := range recs {
		if r.Parent == 0 {
			roots = append(roots, r)
		}
	}
	return roots
}
