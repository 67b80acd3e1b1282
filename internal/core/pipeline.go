package core

import (
	"errors"
	"path"
	"time"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Every public Mount operation runs the same five-stage pipeline; this file
// holds the stages that are shared between operations.
//
//	begin    — open the observability context: root span, latency clock
//	           (opCtx via begin/beginAt, closed by done)
//	cache    — consult the client-side attr/name caches; a hit costs only
//	           the interposition constant (metaCache via the Mount wrappers)
//	resolve  — map the virtual path to (node, physical path, handle)
//	           through placement hashing and special links (materialize)
//	failover — run the op body with transparent retry: re-resolve onto a
//	           replica on node failure, stale handles, or primary changes
//	           (withFailover / materializeRetry)
//	rpc      — the op body itself: forwarded NFS calls and kosha-service
//	           applies, written per operation in mount.go / mountdir.go
//
// The interposition constant I is charged exactly once per operation, in
// whichever stage runs first.

// --- begin stage ---

// opCtx carries the observability context of one public mount operation: the
// op name, its root span and client-side spans (nil when tracing is
// disabled), and the wall-clock start when Config.WallClockStats selects
// wall time over simulated cost.
type opCtx struct {
	m     *Mount
	op    obs.OpCode
	tr    *obs.Op
	start time.Time
}

// begin opens the observability context for one public operation.
func (m *Mount) begin(op obs.OpCode, vpath string) opCtx {
	o := opCtx{m: m, op: op, tr: m.n.tracer.Start(op.String(), vpath, string(m.n.addr))}
	if m.n.cfg.WallClockStats {
		o.start = time.Now()
	}
	return o
}

// done records the operation's latency sample and counters and publishes the
// op's spans. Under simnet the sample is the simulated cost; under a real
// transport koshad selects wall time via Config.WallClockStats.
func (o opCtx) done(cost simnet.Cost, err error) {
	n := o.m.n
	d := time.Duration(cost)
	if n.cfg.WallClockStats {
		d = time.Since(o.start)
	}
	n.opHists[o.op].Observe(d)
	n.opsTotal.Add(1)
	if err != nil {
		n.opErrors.Add(1)
	}
	if o.tr != nil {
		n.tracer.Finish(o.tr, d, err)
	}
}

// vpathOf returns the virtual path behind a handle for trace labels ("" when
// the handle is unknown; the operation itself surfaces the error).
func (m *Mount) vpathOf(vh VH) string {
	if !m.n.tracer.Enabled() {
		return ""
	}
	if de, err := m.entry(vh); err == nil {
		return de.vpath
	}
	return ""
}

// beginAt opens the observability context for an operation addressed by
// (directory handle, name); the trace label is only assembled when tracing
// is enabled, so disabled tracing costs no path allocation.
func (m *Mount) beginAt(op obs.OpCode, dir VH, name string) opCtx {
	if !m.n.tracer.Enabled() {
		return m.begin(op, "")
	}
	return m.begin(op, path.Join(m.vpathOf(dir), name))
}

// --- resolve/placement stage ---

// distributedAt reports whether a child of directory de lives at a
// distributed level — hashed to its own node with capacity redirection
// (Sections 3.2-3.3) — rather than on the parent's node. Lookup, Mkdir, and
// Rmdir all branch on this to pick the placement path.
func (m *Mount) distributedAt(de *ventry) bool {
	depth := virtualDepth(de.vpath) + 1
	return de.place.VRoot || depth <= m.n.cfg.DistributionLevel
}

// staleStore marks a resolution whose cached storage root no longer exists
// (the hierarchy was renamed or removed through another node); the caller
// drops its caches and re-resolves.
var staleStore = errors.New("kosha: cached storage root dangles")

// retryable reports whether an error warrants transparent failover:
// transport failures and stale handles re-resolve onto a replica (Section
// 4.4); ErrNotPrimary re-resolves after an ownership change.
func retryable(err error) bool {
	return errors.Is(err, simnet.ErrUnreachable) ||
		errors.Is(err, ErrNotPrimary) ||
		nfs.IsStatus(err, nfs.ErrStale)
}

// cacheSuspect reports whether an error could be the fault of a stale
// name-cache entry rather than of the operation itself: another client may
// have removed, renamed, or retyped the path since it was cached. Such a
// failure on a cached entry is retried once against a fresh resolution, the
// way the kernel NFS client retries after ESTALE.
func cacheSuspect(err error) bool {
	return nfs.IsStatus(err, nfs.ErrNoEnt) ||
		nfs.IsStatus(err, nfs.ErrNotDir) ||
		nfs.IsStatus(err, nfs.ErrIsDir)
}

// materialize builds a ventry for a virtual path by resolving placement and
// looking the path up on the storage node. It also returns the entry's
// attributes (LOOKUP carries them, as in NFS).
func (m *Mount) materialize(tr *obs.Op, vpath string) (*ventry, localfs.Attr, simnet.Cost, error) {
	parts := SplitVirtual(vpath)
	if len(parts) == 0 {
		return &ventry{vpath: "/", kind: localfs.TypeDir, place: Place{VRoot: true, Store: "/"}},
			localfs.Attr{Ino: 1, Type: localfs.TypeDir, Mode: 0o755, Nlink: 2}, 0, nil
	}
	var total simnet.Cost

	place, cost, err := m.n.resolveDir(tr, parts)
	total = simnet.Seq(total, cost)
	switch {
	case err == nil:
		phys := place.PhysDir()
		storeComps := pathComponents(place.SubtreeRoot())
		fh, attr, idx, c, lerr := m.n.remoteLookupPathIdx(tr.Ctx(), place.Node, phys)
		total = simnet.Seq(total, c)
		if nfs.IsStatus(lerr, nfs.ErrNoEnt) {
			if idx < storeComps {
				// The resolved storage root itself dangles: a stale cache
				// entry survived a rename/removal done elsewhere.
				lerr = staleStore
			} else {
				_, c2, perr := m.n.promote(tr.Ctx(), place.Node, Track{PN: place.PN(), Root: place.SubtreeRoot()})
				total = simnet.Seq(total, c2)
				if perr == nil {
					fh, attr, idx, c, lerr = m.n.remoteLookupPathIdx(tr.Ctx(), place.Node, phys)
					total = simnet.Seq(total, c)
					if nfs.IsStatus(lerr, nfs.ErrNoEnt) && idx < storeComps {
						lerr = staleStore
					}
				}
			}
		}
		if lerr != nil {
			return nil, localfs.Attr{}, total, lerr
		}
		if tr != nil {
			tr.Root.ServedBy = string(place.Node)
		}
		ve := &ventry{
			vpath:    localfs.Clean(vpath),
			kind:     attr.Type,
			node:     place.Node,
			fh:       fh,
			physPath: phys,
			pn:       place.PN(),
			root:     place.SubtreeRoot(),
			place:    place,
		}
		m.cacheAttr(ve.vpath, attr)
		return ve, attr, total, nil

	case nfs.IsStatus(err, nfs.ErrNotDir):
		// The final component is a file or plain symlink at a depth the
		// resolver treated as a directory level; resolve the parent and
		// look the leaf up there.
		parent, cost, perr := m.n.resolveDir(tr, parts[:len(parts)-1])
		total = simnet.Seq(total, cost)
		if perr != nil {
			return nil, localfs.Attr{}, total, perr
		}
		name := parts[len(parts)-1]
		phys := path.Join(parent.PhysDir(), name)
		storeComps := pathComponents(parent.SubtreeRoot())
		fh, attr, idx, c, lerr := m.n.remoteLookupPathIdx(tr.Ctx(), parent.Node, phys)
		total = simnet.Seq(total, c)
		if nfs.IsStatus(lerr, nfs.ErrNoEnt) && !parent.VRoot {
			if idx < storeComps {
				lerr = staleStore
			} else {
				_, c2, perr := m.n.promote(tr.Ctx(), parent.Node, Track{PN: parent.PN(), Root: parent.SubtreeRoot()})
				total = simnet.Seq(total, c2)
				if perr == nil {
					fh, attr, idx, c, lerr = m.n.remoteLookupPathIdx(tr.Ctx(), parent.Node, phys)
					total = simnet.Seq(total, c)
					if nfs.IsStatus(lerr, nfs.ErrNoEnt) && idx < storeComps {
						lerr = staleStore
					}
				}
			}
		}
		if lerr != nil {
			return nil, localfs.Attr{}, total, lerr
		}
		if tr != nil {
			tr.Root.ServedBy = string(parent.Node)
		}
		ve := &ventry{
			vpath:    localfs.Clean(vpath),
			kind:     attr.Type,
			node:     parent.Node,
			fh:       fh,
			physPath: phys,
			pn:       parent.PN(),
			root:     parent.SubtreeRoot(),
			place:    parent,
		}
		m.cacheAttr(ve.vpath, attr)
		return ve, attr, total, nil

	default:
		return nil, localfs.Attr{}, total, err
	}
}

// materializeRetry is materialize with transparent failover: a retryable
// failure has already invalidated the caches naming the dead node (noteErr),
// so re-resolution routes onto a replica holder. One NoEnt retry with
// dropped caches covers stale resolver entries whose storage root moved
// (renames relocate storage by design). ErrNotDir gets the same single
// revalidation: a re-salting redirect or a rebalancer migration replaces a
// cached directory root with a special link, so a walk through the stale
// entry hits a non-directory where the root used to be; a fresh resolution
// follows the link instead. A genuine not-a-directory error survives the
// retry and is returned unchanged.
func (m *Mount) materializeRetry(tr *obs.Op, vpath string) (*ventry, localfs.Attr, simnet.Cost, error) {
	var total simnet.Cost
	staleRetried := false
	for attempt := 0; ; attempt++ {
		de, attr, c, err := m.materialize(tr, vpath)
		total = simnet.Seq(total, c)
		if err == nil || attempt >= 3 {
			return de, attr, total, err
		}
		switch {
		case errors.Is(err, staleStore):
			if staleRetried {
				return de, attr, total, &nfs.Error{Proc: nfs.ProcLookup, Status: nfs.ErrNoEnt}
			}
			staleRetried = true
			m.dropCachesUnder(vpath)
			continue
		case nfs.IsStatus(err, nfs.ErrNotDir) && !staleRetried:
			staleRetried = true
			m.dropCachesUnder(vpath)
			continue
		}
		if !retryable(err) {
			return de, attr, total, err
		}
		m.dropCachesUnder(vpath)
	}
}

// --- failover+retry stage ---

// withFailover runs fn against a ventry, transparently re-resolving and
// retrying on node failure, stale handles, or primary changes. The
// interposition constant I is charged once per operation. Each failover is
// recorded in the overlay event log, the failover latency histogram (the
// cost of re-resolving onto a replica), and the root span's failover count.
func (m *Mount) withFailover(tr *obs.Op, vh VH, fn func(de *ventry) (simnet.Cost, error)) (simnet.Cost, error) {
	total := m.n.cfg.InterposeCost
	de, err := m.entry(vh)
	if err != nil {
		return total, err
	}
	cacheRetried := false
	for attempt := 0; ; attempt++ {
		c, err := fn(de)
		total = simnet.Seq(total, c)
		if err == nil {
			// Deeper instrumentation (apply, replica reads, materialize)
			// records the precise server; otherwise the entry's node
			// served the final RPC.
			if tr != nil && tr.Root.ServedBy == "" {
				tr.Root.ServedBy = string(de.node)
			}
			return total, nil
		}
		if attempt >= 3 {
			return total, err
		}
		failedOver := false
		switch {
		case retryable(err):
			// Drop state naming the failed node and re-resolve the path:
			// the overlay now routes the key to a node holding a replica.
			// A NotPrimary answer came from a live node — only the stale
			// resolution is dropped, not the node.
			if !errors.Is(err, ErrNotPrimary) {
				m.n.invalidateNode(de.node)
			}
			failedOver = true
		case de.cached && !cacheRetried && cacheSuspect(err):
			// The entry came from the name cache and the failure smells
			// like staleness; revalidate once against a fresh resolution.
			cacheRetried = true
		default:
			return total, err
		}
		m.dropCachesUnder(de.vpath)
		nde, _, c2, rerr := m.materialize(tr, de.vpath)
		total = simnet.Seq(total, c2)
		if failedOver {
			m.n.events.Add(obs.EvFailover, string(m.n.addr), de.vpath)
			m.n.reg.Observe("op."+obs.OpFailover, time.Duration(c2))
			if tr != nil {
				tr.Root.Failovers++
			}
		}
		if rerr != nil {
			return total, rerr
		}
		if failedOver && nde.root != "" {
			// Read-repair: the key now resolves to a (possibly freshly
			// promoted) replacement primary. Ask it to surface its replica
			// copy and reconcile versions against the surviving replica set
			// so the retried operation — and a later revival of the failed
			// node — sees converged state. If repair moved the subtree, the
			// handle just materialized is stale; resolve it again.
			changed, c3, perr := m.n.promote(tr.Ctx(), nde.node, Track{PN: nde.pn, Root: nde.root})
			total = simnet.Seq(total, c3)
			if perr == nil && changed {
				m.dropCachesUnder(de.vpath)
				nde, _, c3, rerr = m.materialize(tr, de.vpath)
				total = simnet.Seq(total, c3)
				if rerr != nil {
					return total, rerr
				}
			}
		}
		m.replace(vh, nde)
		de = nde
	}
}

// dropCachesUnder invalidates resolver cache entries for a path and its
// ancestors (any of them may name the failed node), plus this mount's
// metadata caches for the path's subtree (handles and attributes cached
// below a failed or relocated directory are all suspect).
func (m *Mount) dropCachesUnder(vpath string) {
	parts := SplitVirtual(vpath)
	for i := 1; i <= len(parts); i++ {
		m.n.cacheDrop(JoinVirtual(parts[:i]))
	}
	m.dropMetaUnder(vpath)
}
