package main

import (
	"strings"
	"time"
)

// nfsProcs are the NFS procedures reported per layer.
var nfsProcs = []string{"GETATTR", "SETATTR", "LOOKUP", "READ", "WRITE", "CREATE", "MKDIR", "REMOVE", "READDIRPLUS", "FSSTAT"}

// replProcs are the kosha replica-maintenance procedures reported per layer.
var replProcs = []string{"stat_tree", "untrack", "promote", "replicas", "tree_digest", "dir_digests", "chunk_manifest", "chunk_fetch"}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perLayer assembles the traced run's per-layer metrics. plain is the
// untraced run of the same seed: the runtime metrics come from it, and the
// tracing overhead compares the two.
func (a *arm) perLayer(plain *arm) map[string]metric {
	r := a.rec
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	calls := func(name string) float64 { return float64(r.calls[name]) }
	// prefixed sums calls and self time over every span name with a prefix.
	prefixed := func(prefix string) (n float64, self time.Duration) {
		for name, c := range r.calls {
			if strings.HasPrefix(name, prefix) {
				n += float64(c)
				self += r.self[name]
			}
		}
		return n, self
	}
	obs := func(name string) float64 { return float64(a.obs[name]) }

	for _, k := range opKinds {
		ks := a.mt.kinds[k]
		put("core."+k+".calls", float64(len(ks.sim)), "count")
		put("core."+k+".sim_ms_p50", medianOrZero(ks.sim), "ms")
		put("core."+k+".wall_us_p50", medianOrZero(ks.wall), "us")
	}
	for _, p := range []string{"apply", "mirror"} {
		put("core.rpc."+p+".calls", calls("core.rpc."+p), "count")
		put("core.rpc."+p+".self_ms", ms(r.self["core.rpc."+p]), "ms")
	}
	put("core.retries", obs("rpc.retries"), "count")
	put("core.giveups", obs("rpc.giveups"), "count")
	sorted := sortedCopy(a.mt.simMS)
	p50, _ := percentile(sorted, 0.50)
	p99, _ := percentile(sorted, 0.99)
	put("core.sim_op_p50_ms", p50, "ms")
	put("core.sim_op_p99_ms", p99, "ms")
	put("core.failover_probe.sim_s", a.mt.probeSim.Seconds(), "s")
	put("core.op_error_rate", float64(a.mt.failed)/float64(max(a.mt.ops, 1)), "ratio")

	for _, p := range nfsProcs {
		put("nfs."+p+".calls", calls("nfs."+p), "count")
		put("nfs."+p+".self_ms", ms(r.self["nfs."+p]), "ms")
	}
	put("nfs.sim_s", r.sims["nfs"], "s")
	put("nfs.bytes", float64(r.counts["nfs.bytes"]), "B")

	for _, p := range replProcs {
		put("repl.rpc."+p+".calls", calls("repl.rpc."+p), "count")
	}
	_, replSelf := prefixed("repl.rpc.")
	put("repl.rpc.self_ms", ms(replSelf), "ms")
	put("repl.sync.calls", calls("repl.sync"), "count")
	put("repl.sync.wall_ms", ms(r.total["repl.sync"]), "ms")
	put("repl.sync.sim_s", r.sims["repl.sync"], "s")
	put("repl.sync.bytes", obs("repl.sync.bytes"), "B")
	put("repl.fetch.bytes", obs("repl.fetch.bytes"), "B")
	put("repl.cas.blocks.fetched", obs("repl.cas.blocks.fetched"), "count")
	sent, skipped := obs("repl.sync.files.sent"), obs("repl.sync.files.skipped")
	put("repl.skip_ratio", ratioOrZero(skipped, sent+skipped), "ratio")

	pn, pself := prefixed("pastry.rpc.")
	put("pastry.rpc.calls", pn, "count")
	put("pastry.rpc.self_ms", ms(pself), "ms")
	put("pastry.route.count", obs("route.count"), "count")
	put("pastry.route.hops_mean", ratioOrZero(obs("route.hops"), obs("route.count")), "hops")
	put("pastry.stabilize.wall_ms", ms(r.total["pastry.stabilize"]), "ms")
	put("pastry.stabilize.sim_s", r.sims["pastry.stabilize"], "s")
	put("pastry.join.wall_ms", ms(r.total["pastry.join"]), "ms")

	put("localfs.read.calls", float64(r.counts["localfs.read.calls"]), "count")
	put("localfs.read.bytes", float64(r.counts["localfs.read.bytes"]), "B")
	put("localfs.write.calls", float64(r.counts["localfs.write.calls"]), "count")
	put("localfs.write.bytes", float64(r.counts["localfs.write.bytes"]), "B")
	put("localfs.data.self_ms", ms(r.self["localfs.data"]), "ms")
	put("localfs.meta.calls", calls("localfs.meta"), "count")
	put("localfs.meta.self_ms", ms(r.self["localfs.meta"]), "ms")
	put("localfs.path.calls", calls("localfs.path"), "count")

	put("maint.tick.calls", calls("maint.tick"), "count")
	put("maint.tick.wall_ms", ms(r.total["maint.tick"]), "ms")
	put("maint.tick.sim_s", r.sims["maint.tick"], "s")
	put("maint.scrub.divergences", obs("maint.scrub.divergences"), "count")
	put("maint.scrub.repaired", obs("maint.scrub.repaired"), "count")

	put("simnet.messages", float64(r.counts["simnet.messages"]), "count")
	put("simnet.failures", float64(r.counts["simnet.failures"]), "count")
	put("simnet.transport_ms", ms(r.self["simnet.transport"]), "ms")
	put("tcpnet.messages", float64(r.counts["tcpnet.messages"]), "count")
	put("tcpnet.transport_ms", ms(r.self["tcpnet.transport"]), "ms")

	put("runtime.gc.cycles", float64(plain.mem1.NumGC-plain.mem0.NumGC), "count")
	put("runtime.gc.pause_ms", float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs)/1e6, "ms")
	wallP99, _ := percentile(sortedCopy(plain.mt.wallUS), 0.99)
	put("runtime.wall_op_p99_us", wallP99, "us")

	put("obs.tracing_overhead_pct", 100*(plain.opsPerSec()/a.opsPerSec()-1), "%")
	return out
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ratioOrZero(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
