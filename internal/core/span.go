package core

import (
	"encoding/binary"
	"sort"
	"strings"

	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/repl"
	"repro/internal/simnet"
)

// Overlay-health gauge names published by ProbeHealth. They live here (not
// obs) because only core can compute them; the exposition layer and tests
// reference the constants instead of retyping strings.
const (
	GaugeLeafSize     = "overlay.leafset.size"
	GaugeLeafIdeal    = "overlay.leafset.ideal"
	GaugeTableEntries = "overlay.table.entries"
	GaugeTableRows    = "overlay.table.rows"
	GaugeReplicaLag   = "overlay.replica.lag"
)

// addrHash folds a transport address into a 64-bit value (FNV-1a) used to
// perturb the per-node trace-ID seed: nodes sharing one Config.Seed must
// still draw disjoint ID streams or cross-node trace reassembly would
// collide.
func addrHash(a simnet.Addr) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= 1099511628211
	}
	return h
}

// nodeSink plugs the node's tracer into a context-propagating transport.
// The transport drives it around every exchange that arrives with a valid
// trace context: NextSpanID before the handler runs (so nested RPCs issued
// by the handler parent under the server span), RecordServerSpan after.
type nodeSink struct{ n *Node }

func (s nodeSink) NextSpanID() uint64 { return s.n.tracer.NextSpanID() }

func (s nodeSink) RecordServerSpan(ctx obs.TraceContext, span uint64, service string, from simnet.Addr, req []byte, cost simnet.Cost, err error) {
	rec := obs.SpanRecord{
		Hi:     ctx.Hi,
		Lo:     ctx.Lo,
		Parent: ctx.Span,
		Span:   span,
		Name:   spanName(service, req),
		From:   string(from),
		Node:   string(s.n.addr),
		DurNS:  int64(cost),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.n.tracer.RecordSpan(rec)
}

// koshaProcNames names replication-service procedures for span labels.
var koshaProcNames = map[uint32]string{
	kApply:      "apply",
	kMirror:     "mirror",
	kStatTree:   "stat-tree",
	kUntrack:    "untrack",
	kPromote:    "promote",
	kReplicas:   "replicas",
	kTreeDigest: "tree-digest",
	kDirDigests: "dir-digests",
}

// ctlProcNames names administrative-service procedures for span labels.
var ctlProcNames = map[uint32]string{
	ctlRead:      "read",
	ctlWrite:     "write",
	ctlList:      "list",
	ctlMkdirAll:  "mkdir-all",
	ctlRemoveAll: "remove-all",
	ctlStat:      "stat",
	ctlStatfs:    "statfs",
	ctlPeers:     "peers",
	ctlStats:     "stats",
	ctlTrace:     "trace",
	ctlTraceFrag: "trace-frag",
	ctlSamples:   "samples",
	ctlSlow:      "slow",
}

// spanKey names one procedure of one node service.
type spanKey struct {
	service string
	proc    uint32
}

// spanLabels holds the label of every known procedure of every node
// service, built once so that labelling a server span allocates nothing.
var spanLabels = func() map[spanKey]string {
	m := make(map[spanKey]string)
	add := func(service string, proc uint32) {
		m[spanKey{service, proc}] = formatSpanName(service, proc)
	}
	for p := nfs.ProcNull; p <= nfs.ProcMountRoot; p++ {
		if !strings.HasPrefix(p.String(), "PROC(") {
			add(nfs.Service, uint32(p))
		}
	}
	for proc := range koshaProcNames {
		add(KoshaService, proc)
	}
	for proc := uint32(0); pastry.ProcName(proc) != "?"; proc++ {
		add(pastry.Service, proc)
	}
	for proc := range ctlProcNames {
		add(CtlService, proc)
	}
	return m
}()

// spanName labels a server span "service.proc" by decoding the leading
// big-endian procedure number every node service puts first on the wire.
func spanName(service string, req []byte) string {
	if len(req) < 4 {
		return service
	}
	proc := binary.BigEndian.Uint32(req[:4])
	if s, ok := spanLabels[spanKey{service, proc}]; ok {
		return s
	}
	return formatSpanName(service, proc)
}

func formatSpanName(service string, proc uint32) string {
	switch service {
	case nfs.Service:
		return "nfs." + nfs.Proc(proc).String()
	case KoshaService:
		if s, ok := koshaProcNames[proc]; ok {
			return "kosha." + s
		}
	case pastry.Service:
		return "pastry." + pastry.ProcName(proc)
	case CtlService:
		if s, ok := ctlProcNames[proc]; ok {
			return "koshactl." + s
		}
	}
	return service + ".?"
}

// nfsT returns the node's NFS client stamped with tr's trace context: the
// returned value client propagates the context on every call so the remote
// server records a child span. A nil op yields the plain client.
func (n *Node) nfsT(tr *obs.Op) nfs.Client {
	if tr == nil {
		return n.nfsc
	}
	return n.nfsc.WithCtx(tr.Ctx())
}

// nfsCtx is nfsT for call sites that hold a raw context (the repl engine's
// Peer callbacks) rather than a traced op.
func (n *Node) nfsCtx(tc obs.TraceContext) nfs.Client {
	return n.nfsc.WithCtx(tc)
}

// callKosha issues one kosha-service RPC through the retrier, carrying tc
// across the wire when it is valid so the server's handler work appears as
// a span in the originating trace.
func (n *Node) callKosha(tc obs.TraceContext, to simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
	return n.rpc.CallCtx(tc, n.addr, to, KoshaService, req)
}

// ProbeHealth refreshes the overlay-health gauges from live overlay and
// replication state: leaf-set occupancy against the configured ideal,
// routing-table fill, and the count of (root, replica) pairs whose replica
// copy digest-lags the primary. It issues digest RPCs to current replica
// candidates, so call it at a low rate (koshad's prober) or on demand.
func (n *Node) ProbeHealth() {
	size, ideal := n.overlay.LeafStats()
	n.reg.Gauge(GaugeLeafSize).Set(int64(size))
	n.reg.Gauge(GaugeLeafIdeal).Set(int64(ideal))
	entries, rows := n.overlay.TableStats()
	n.reg.Gauge(GaugeTableEntries).Set(int64(entries))
	n.reg.Gauge(GaugeTableRows).Set(int64(rows))

	roots := make([]string, 0, 8)
	for root := range n.rep.TrackedRoots() {
		if n.rep.IsDead(root) {
			continue
		}
		if local := n.rep.DigestLocal(root); local.Exists {
			roots = append(roots, root)
		}
	}
	sort.Strings(roots)
	reps := n.overlay.ReplicaCandidates(n.cfg.Replicas)
	lag := 0
	for _, root := range roots {
		local := n.rep.DigestLocal(root)
		for _, rep := range reps {
			remote, _, err := n.remoteDigestTree(obs.TraceContext{}, rep.Addr, repl.RepPath(root))
			if err != nil || !remote.Exists || remote.Flag || remote.Root != local.Root {
				lag++
			}
		}
	}
	n.reg.Gauge(GaugeReplicaLag).Set(int64(lag))
}
