package repl

import (
	"errors"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// Overlay is the engine's view of the p2p substrate: key ownership checks,
// the current replica candidates, and raw routing. The core node adapts its
// Pastry instance to this (re-reading it across Revive incarnations).
type Overlay interface {
	// EnsureRootFor actively verifies whether this node owns key (pinging
	// and purging a better candidate if it is dead).
	EnsureRootFor(key id.ID) (bool, simnet.Cost)
	// ReplicaCandidates returns the K leaf-set neighbors that should hold
	// replicas for this node's keys.
	ReplicaCandidates(k int) []pastry.NodeInfo
	// Route resolves the node currently owning key.
	Route(key id.ID) (pastry.RouteResult, error)
}

// Peer is the engine's view of other nodes: the kosha-service RPCs used for
// replica maintenance plus the plain NFS reads tree fetches are built from.
// Every method takes the caller's trace context first, so anti-entropy and
// migration traffic shows up as server spans on the remote side of the
// assembled cross-node trace (a zero context propagates nothing).
type Peer interface {
	// Mirror ships one mutation to another node; primary selects whether it
	// lands in the primary namespace (migration push) or the replica area.
	Mirror(tc obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error)
	// StatTree summarizes the subtree stored at exactly root on to.
	StatTree(tc obs.TraceContext, to simnet.Addr, root string) (TreeStat, simnet.Cost, error)
	// Promote asks to, as the new owner of t's key, to surface its
	// replica-area copy; reports whether remote state changed.
	Promote(tc obs.TraceContext, to simnet.Addr, t Track) (bool, simnet.Cost, error)
	// DigestTree returns the Merkle digest summary of the subtree stored at
	// exactly root on to.
	DigestTree(tc obs.TraceContext, to simnet.Addr, root string) (TreeDigest, simnet.Cost, error)
	// DirDigests lists the immediate children of a remote directory with
	// their subtree digests; ok is false when dir is missing or not a
	// directory.
	DirDigests(tc obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error)
	// LookupPath resolves a physical path on a remote store.
	LookupPath(tc obs.TraceContext, to simnet.Addr, phys string) (nfs.Handle, localfs.Attr, simnet.Cost, error)
	// ReadStream reads up to chunks consecutive chunk-byte pieces of a
	// remote file in one round trip, reporting EOF — the pipelined window
	// transfer tree fetches are built from.
	ReadStream(tc obs.TraceContext, to simnet.Addr, fh nfs.Handle, off int64, chunk, chunks int) ([]byte, bool, simnet.Cost, error)
	// ReadLink reads a remote symlink target by physical path.
	ReadLink(tc obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error)
	// ChunkManifest negotiates at the block level (CHUNK_MANIFEST): it
	// returns the chunk manifest of the remote regular file at phys (exists
	// false when phys is missing or not a regular file, which also indexes
	// the remote copy's blocks as a side effect) and, for each hash in want,
	// whether the remote's block index already holds those bytes.
	ChunkManifest(tc obs.TraceContext, to simnet.Addr, phys string, want []cas.Hash) (man cas.Manifest, exists bool, have []bool, cost simnet.Cost, err error)
	// ChunkFetch retrieves blocks by content hash (CHUNK_FETCH); phys hints
	// at a file whose manifest covers the hashes so a holder that never
	// indexed it can do so on demand. blocks[i] is nil for hashes the remote
	// could not serve — callers verify every returned block against its hash.
	ChunkFetch(tc obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) (blocks [][]byte, cost simnet.Cost, err error)
}

// Options configures an Engine.
type Options struct {
	Self     simnet.Addr        // this node's address (event attribution)
	Store    localfs.FileSystem // the contributed partition
	Overlay  Overlay
	Peer     Peer
	Replicas int                   // K
	Key      func(pn string) id.ID // placement-name hash
	Events   *obs.EventLog         // may be nil-safe consumers only if non-nil
	Registry *obs.Registry
	// Tracer, when set, gives replica-maintenance runs their own cluster-wide
	// trace ids: each Sync becomes a traced operation whose remote traffic
	// records server spans on the peers it touches. Nil disables (all engine
	// RPCs then carry the zero context).
	Tracer *obs.Tracer
}

// Engine tracks the replicated hierarchies this node holds and re-establishes
// the K-replica invariant after membership changes (Sections 4.2-4.4). All
// methods are safe for concurrent use; Sync is additionally self-excluding
// (overlapping calls collapse to one).
type Engine struct {
	self     simnet.Addr
	store    localfs.FileSystem
	ov       Overlay
	peer     Peer
	replicas int
	key      func(pn string) id.ID
	events   *obs.EventLog
	reg      *obs.Registry
	tracer   *obs.Tracer
	mk       *merkle.Cache // subtree digests over store, mutation-invalidated
	cas      *cas.Store    // block index the merkle cache keeps in lockstep

	// Sync-traffic counters: payload bytes shipped, files sent vs skipped
	// by digest match, and whole-tree digest exchanges that hit vs missed.
	syncBytes    *obs.Counter
	syncSent     *obs.Counter
	syncSkipped  *obs.Counter
	digestHits   *obs.Counter
	digestMisses *obs.Counter
	// Pull-repair counters: blocks obtained over CHUNK_FETCH, and total
	// content bytes a tree fetch materialized over the network (both the
	// block and the whole-file path), so promote-repair traffic is
	// measurable independent of the surrounding sync chatter.
	blocksFetched *obs.Counter
	fetchBytes    *obs.Counter
	// routedFetched counts blocks obtained from a holder found via routing
	// after the leaf-set swarm (and its retry pass) came up empty.
	routedFetched *obs.Counter

	mu           sync.Mutex
	tracked      map[string]Track // physical subtree root -> metadata (PN, version)
	trackedLinks map[string]Track // level-1 special link path -> metadata
	fetchHook    func(holder simnet.Addr, blocks int)

	syncing atomic.Bool
}

// New builds an engine with empty tracking state.
func New(o Options) *Engine {
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	blocks := cas.NewStore(o.Store, o.Registry)
	return &Engine{
		self:          o.Self,
		store:         o.Store,
		ov:            o.Overlay,
		peer:          o.Peer,
		replicas:      o.Replicas,
		key:           o.Key,
		events:        o.Events,
		reg:           o.Registry,
		tracer:        o.Tracer,
		mk:            merkle.NewCacheWithStore(o.Store, blocks),
		cas:           blocks,
		syncBytes:     o.Registry.Counter("repl.sync.bytes"),
		syncSent:      o.Registry.Counter("repl.sync.files.sent"),
		syncSkipped:   o.Registry.Counter("repl.sync.files.skipped"),
		digestHits:    o.Registry.Counter("repl.sync.digest.hits"),
		digestMisses:  o.Registry.Counter("repl.sync.digest.misses"),
		blocksFetched: o.Registry.Counter("repl.cas.blocks.fetched"),
		fetchBytes:    o.Registry.Counter("repl.fetch.bytes"),
		routedFetched: o.Registry.Counter("repl.cas.blocks.routed"),
		tracked:       make(map[string]Track),
		trackedLinks:  make(map[string]Track),
	}
}

// Reset discards all tracking state (node revival purges all Kosha data,
// Section 4.3.2).
func (e *Engine) Reset() {
	e.mu.Lock()
	e.tracked = make(map[string]Track)
	e.trackedLinks = make(map[string]Track)
	e.mu.Unlock()
	e.cas.Reset()
}

// TrackedRoots returns a snapshot (fresh map) of root -> placement name.
func (e *Engine) TrackedRoots() map[string]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]string, len(e.tracked))
	for k, v := range e.tracked {
		out[k] = v.PN
	}
	return out
}

// IsDead reports whether this node's record for a root is a tombstone.
func (e *Engine) IsDead(root string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tracked[root]
	return ok && t.Dead
}

// VerOf returns this node's recorded mutation counter for a root or link.
func (e *Engine) VerOf(key string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.tracked[key]; ok {
		return t.Ver
	}
	if t, ok := e.trackedLinks[key]; ok {
		return t.Ver
	}
	return 0
}

// Untrack drops the record for a root (remote-initiated cleanup).
func (e *Engine) Untrack(root string) {
	e.mu.Lock()
	delete(e.tracked, root)
	e.mu.Unlock()
}

// Stamp assigns the next mutation counter value for the op being applied at
// the primary and records it, with the op's liveness, in the same critical
// section: concurrent applies get distinct versions, the record never moves
// backwards, and it holds every version before any replica can. A
// storage-root rename continues the old root's version chain.
func (e *Engine) Stamp(t Track, op FSOp) Track {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case op.Kind == FSRename && op.Path2 == t.Root:
		t.Ver = e.tracked[op.Path].Ver + 1
	case t.Link != "":
		t.Ver = e.trackedLinks[t.Link].Ver + 1
	case t.Root == "":
		t.Ver = 0
	default:
		t.Ver = e.tracked[t.Root].Ver + 1
	}
	e.trackLocked(t, op)
	return t
}

// Track records subtree/link ownership metadata shipped with a mutation.
func (e *Engine) Track(t Track, op FSOp) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.trackLocked(t, op)
}

func (e *Engine) trackLocked(t Track, op FSOp) {
	if t.PN == "" {
		return
	}
	if t.Link != "" {
		t.Dead = op.Kind == FSRemove
		e.trackedLinks[t.Link] = t
		return
	}
	if t.Root == "" {
		return
	}
	// A storage-root rename (the cheap-rename path) rekeys the entry,
	// carrying the version chain to the new root.
	if op.Kind == FSRename && (op.Path2 == t.Root || op.Path2 == RepPath(t.Root)) {
		old := PrimaryRoot(op.Path)
		if cur, ok := e.tracked[old]; ok {
			if cur.Ver > t.Ver {
				t.Ver = cur.Ver
			}
			delete(e.tracked, old)
		}
		e.tracked[t.Root] = t
		return
	}
	// A removal of the hierarchy root becomes a tombstone: the entry stays
	// with a bumped version so a node holding a stale copy can learn that
	// deletion is the newer state, and a later re-creation continues the
	// version chain above the tombstone.
	t.Dead = (op.Kind == FSRmdir || op.Kind == FSRemoveAll) &&
		(op.Path == t.Root || op.Path == RepPath(t.Root))
	// Last writer wins: the copy now reflects the sender's version, so the
	// record does too (a full re-push may legitimately lower it).
	e.tracked[t.Root] = t
}

// PruneUp removes empty scaffolding directories above a deleted entry,
// stopping at tracked subtree roots and the store root (Section 4.1.5: "The
// empty hierarchy leading to the subdirectory is then deleted").
func (e *Engine) PruneUp(dir string) {
	for dir != "/" && dir != "." {
		e.mu.Lock()
		_, isTracked := e.tracked[dir]
		e.mu.Unlock()
		if isTracked {
			return
		}
		attr, err := e.store.LookupPath(dir)
		if err != nil || attr.Type != localfs.TypeDir {
			return
		}
		ents, _, err := e.store.Readdir(attr.Ino)
		if err != nil || len(ents) > 0 {
			return
		}
		parent := path.Dir(dir)
		pattr, err := e.store.LookupPath(parent)
		if err != nil {
			return
		}
		if _, err := e.store.Rmdir(pattr.Ino, path.Base(dir)); err != nil {
			return
		}
		dir = parent
	}
}

// StatLocal summarizes the local subtree stored at exactly this path.
func (e *Engine) StatLocal(root string) TreeStat {
	var st TreeStat
	if _, err := e.store.LookupPath(root); err != nil {
		return st
	}
	st.Exists = true
	flagPath := path.Join(root, MigrationFlag)
	e.store.Walk(root, func(p string, a localfs.Attr, _ string) error {
		if a.Type == localfs.TypeDir {
			st.Dirs++
			return nil
		}
		// Only the root-level sentinel is protocol state; a user file that
		// happens to share the name deeper in the tree is ordinary data.
		if p == flagPath {
			st.Flag = true
			return nil
		}
		st.Files++
		st.Bytes += a.Size
		return nil
	})
	return st
}

// DigestLocal summarizes the local subtree stored at exactly this path by
// its Merkle root digest. Ver is left zero; the RPC layer stamps the
// holder's recorded mutation counter (the engine's VerOf) on the way out.
func (e *Engine) DigestLocal(root string) TreeDigest {
	var td TreeDigest
	if _, err := e.store.LookupPath(root); err != nil {
		return td
	}
	td.Exists = true
	if _, err := e.store.LookupPath(path.Join(root, MigrationFlag)); err == nil {
		td.Flag = true
	}
	if d, err := e.mk.DigestOf(root); err == nil {
		td.Root = d
	}
	return td
}

// DirDigestsLocal lists the immediate children of a local directory with
// their subtree digests; ok is false when dir is missing or not a directory.
func (e *Engine) DirDigestsLocal(dir string) ([]merkle.Entry, bool, error) {
	return e.mk.Entries(dir)
}

// LocalTreePath locates this node's copy of a subtree: at the primary path
// when it owns the key, otherwise in the replica area.
func (e *Engine) LocalTreePath(root string) (string, bool) {
	if _, err := e.store.LookupPath(root); err == nil {
		return root, true
	}
	if _, err := e.store.LookupPath(RepPath(root)); err == nil {
		return RepPath(root), true
	}
	return "", false
}

// PromoteLocal moves a replica-area copy of a subtree (or level-1 special
// link) to its primary path. Call only after confirming ownership of the
// key; it is a no-op when the primary path already exists or no replica
// copy is held. Reports whether it surfaced anything.
func (e *Engine) PromoteLocal(t Track) bool {
	target := t.Root
	if t.Link != "" {
		target = t.Link
	}
	if target == "" {
		return false
	}
	e.mu.Lock()
	meta, ok := e.tracked[t.Root]
	if t.Link != "" {
		meta, ok = e.trackedLinks[t.Link]
	}
	e.mu.Unlock()
	if ok && meta.Dead {
		// We saw the hierarchy's deletion: nothing to surface, and any
		// leftover replica-area data is stale.
		e.store.RemoveAll(RepPath(target))
		return false
	}
	if _, err := e.store.LookupPath(target); err == nil {
		return false
	}
	src := RepPath(target)
	if _, err := e.store.LookupPath(src); err != nil {
		return false
	}
	if _, err := e.store.MkdirAll(path.Dir(target)); err != nil {
		return false
	}
	spar, err := e.store.LookupPath(path.Dir(src))
	if err != nil {
		return false
	}
	dpar, err := e.store.LookupPath(path.Dir(target))
	if err != nil {
		return false
	}
	if _, err := e.store.Rename(spar.Ino, path.Base(src), dpar.Ino, path.Base(target)); err != nil {
		return false
	}
	e.PruneUp(path.Dir(src))
	e.Track(t, FSOp{Kind: FSMkdirAll, Path: t.Root})
	return true
}

// DemoteLocal moves this node's primary-path copy of a subtree (or link)
// back into the replica area, after ownership of the key moved elsewhere.
// Without this, a stale primary-path leftover would shadow the fresher
// replica-area copy the next time ownership returns here ("their copy on N
// becomes one of the replicas", Section 4.3.1).
func (e *Engine) DemoteLocal(t Track) {
	target := t.Root
	if t.Link != "" {
		target = t.Link
	}
	if target == "" || target == "/" {
		return
	}
	if _, err := e.store.LookupPath(target); err != nil {
		return
	}
	dst := RepPath(target)
	e.store.RemoveAll(dst)
	if _, err := e.store.MkdirAll(path.Dir(dst)); err != nil {
		return
	}
	spar, err := e.store.LookupPath(path.Dir(target))
	if err != nil {
		return
	}
	dpar, err := e.store.LookupPath(path.Dir(dst))
	if err != nil {
		return
	}
	if _, err := e.store.Rename(spar.Ino, path.Base(target), dpar.Ino, path.Base(dst)); err != nil {
		return
	}
	e.PruneUp(path.Dir(target))
}

// Sync re-establishes the replication invariant for every subtree and
// level-1 link this node tracks: if this node is the primary it pushes to
// its current K leaf-set neighbors; if ownership moved (a closer node
// joined) it migrates the subtree to the new primary, keeping its own copy
// as a replica (Section 4.3.1). Returns the simulated cost.
func (e *Engine) Sync() (total simnet.Cost) {
	if !e.syncing.CompareAndSwap(false, true) {
		return 0
	}
	defer e.syncing.Store(false)
	e.events.Add(obs.EvResync, string(e.self), "")
	// Each sync run is its own traced operation: the remote side of every
	// stat/digest/mirror below records a span under this trace id.
	str := e.tracer.Start(obs.OpResync, "/", string(e.self))
	tc := str.Ctx()
	defer func() {
		e.reg.Observe("op."+obs.OpResync, time.Duration(total))
		e.tracer.Finish(str, time.Duration(total), nil)
	}()
	// Snapshot in sorted order: map iteration order would otherwise vary the
	// RPC sequence between runs, breaking seed-exact replay of fault
	// schedules (the chaos harness's determinism contract).
	type trackedRoot struct {
		root string
		meta Track
	}
	e.mu.Lock()
	roots := make([]trackedRoot, 0, len(e.tracked))
	for r, t := range e.tracked {
		roots = append(roots, trackedRoot{r, t})
	}
	links := make([]Track, 0, len(e.trackedLinks))
	linkKeys := make([]string, 0, len(e.trackedLinks))
	for p := range e.trackedLinks {
		linkKeys = append(linkKeys, p)
	}
	sort.Strings(linkKeys)
	for _, p := range linkKeys {
		links = append(links, e.trackedLinks[p])
	}
	e.mu.Unlock()
	sort.Slice(roots, func(i, j int) bool { return roots[i].root < roots[j].root })

	for _, tr := range roots {
		root, meta := tr.root, tr.meta
		key := e.key(meta.PN)
		t := Track{PN: meta.PN, Root: root, Ver: meta.Ver, Dead: meta.Dead}
		if isRoot, c := e.ov.EnsureRootFor(key); isRoot {
			total = simnet.Seq(total, c)
			if meta.Dead {
				// Propagate the deletion to any replica still holding a
				// copy older than the tombstone. The replicas are
				// independent peers, so the fan-out cost is the slowest
				// branch, not the sum.
				var fan []simnet.Cost
				for _, rep := range e.ov.ReplicaCandidates(e.replicas) {
					st, c, err := e.peer.StatTree(tc, rep.Addr, RepPath(root))
					if err != nil || (!st.Exists && st.Ver >= t.Ver) {
						fan = append(fan, c)
						continue
					}
					mc, _ := e.peer.Mirror(tc, rep.Addr, t, FSOp{Kind: FSRemoveAll, Path: root}, false)
					fan = append(fan, simnet.Seq(c, mc))
				}
				total = simnet.Seq(total, simnet.Par(fan...))
				continue
			}
			// Surface any replica-area copy; if a replica holds a newer
			// version or a newer deletion, adopt it before refreshing.
			ac, _ := e.AdoptRoot(tc, t)
			total = simnet.Seq(total, ac)
			t.Ver = e.VerOf(root)
			if e.IsDead(root) {
				continue
			}
			var fan []simnet.Cost
			for _, rep := range e.ov.ReplicaCandidates(e.replicas) {
				c, _ := e.ensureTree(tc, rep.Addr, t, false)
				fan = append(fan, c)
			}
			total = simnet.Seq(total, simnet.Par(fan...))
			continue
		} else {
			total = simnet.Seq(total, c)
		}
		res, err := e.ov.Route(key)
		total = simnet.Seq(total, res.Cost)
		if err != nil || res.Node.Addr == e.self {
			continue
		}
		if meta.Dead {
			// Tell the new owner about the deletion unless it already
			// knows a state at least as new.
			st, c, err := e.peer.StatTree(tc, res.Node.Addr, root)
			total = simnet.Seq(total, c)
			if err == nil && st.Ver < t.Ver {
				c, _ = e.peer.Mirror(tc, res.Node.Addr, t, FSOp{Kind: FSRemoveAll, Path: root, Prune: true}, true)
				total = simnet.Seq(total, c)
			}
			continue
		}
		// Someone else owns the key now: migrate the subtree to them; our
		// copy stays behind as one of the replicas (Section 4.3.1), parked
		// back in the replica area.
		c, err := e.ensureTree(tc, res.Node.Addr, t, true)
		total = simnet.Seq(total, c)
		if err == nil {
			e.DemoteLocal(t)
		}
	}

	for _, t := range links {
		src, ok := e.LocalTreePath(t.Link)
		if !ok {
			continue
		}
		linkAttr, err := e.store.LookupPath(src)
		if err != nil {
			continue
		}
		tgt, _, err := e.store.Readlink(linkAttr.Ino)
		if err != nil {
			continue
		}
		op := FSOp{Kind: FSSymlink, Path: t.Link, Target: tgt}
		key := e.key(t.PN)
		if isRoot, c := e.ov.EnsureRootFor(key); isRoot {
			total = simnet.Seq(total, c)
			e.PromoteLocal(t)
			var fan []simnet.Cost
			for _, rep := range e.ov.ReplicaCandidates(e.replicas) {
				c, _ := e.peer.Mirror(tc, rep.Addr, t, op, false)
				fan = append(fan, c)
			}
			total = simnet.Seq(total, simnet.Par(fan...))
			continue
		} else {
			total = simnet.Seq(total, c)
		}
		res, err := e.ov.Route(key)
		total = simnet.Seq(total, res.Cost)
		if err != nil || res.Node.Addr == e.self {
			continue
		}
		c, merr := e.peer.Mirror(tc, res.Node.Addr, t, op, false)
		total = simnet.Seq(total, c)
		_, c, perr := e.peer.Promote(tc, res.Node.Addr, t)
		total = simnet.Seq(total, c)
		if merr == nil && perr == nil {
			e.DemoteLocal(t)
		}
	}
	return total
}

// ensureTree makes target hold an up-to-date replica-area copy of the
// local subtree. Root digests are exchanged first; a match means the
// remote copy is byte-identical and nothing moves. On a mismatch the delta
// walk descends only into differing directories and ships only changed
// files and deletions, under the MIGRATION_NOT_COMPLETE flag protocol
// (Section 4.4). When promote is set (the target is the new primary after
// an ownership change) the pushed copy lands at the primary path.
func (e *Engine) ensureTree(tc obs.TraceContext, target simnet.Addr, t Track, promote bool) (simnet.Cost, error) {
	src, ok := e.LocalTreePath(t.Root)
	if !ok {
		return 0, nil
	}
	localDigest, lerr := e.mk.DigestOf(src)
	if promote {
		// Migration to the key's new primary. Versions arbitrate: a
		// settled remote copy at least as new as ours wins; otherwise we
		// surface the remote's replica-area copy if that is new enough, or
		// push ours (§4.3.1, with the §4.4 flag protocol inside the push).
		remote, cost, err := e.peer.DigestTree(tc, target, t.Root)
		if err != nil {
			return cost, err
		}
		if remote.Exists && !remote.Flag && remote.Ver >= t.Ver {
			return cost, nil
		}
		if !remote.Exists && remote.Ver > t.Ver {
			// The target knows a strictly newer state and holds no data:
			// that is a deletion tombstone. Pushing our older copy would
			// resurrect the hierarchy; leave it and let the tombstone
			// propagate back to us through the normal sync path.
			return cost, nil
		}
		repRemote, c, err := e.peer.DigestTree(tc, target, RepPath(t.Root))
		cost = simnet.Seq(cost, c)
		if err != nil {
			return cost, err
		}
		if repRemote.Exists && !repRemote.Flag && repRemote.Ver >= t.Ver && !remote.Exists {
			_, c, err := e.peer.Promote(tc, target, t)
			return simnet.Seq(cost, c), err
		}
		c, err = e.deltaPush(tc, target, t, src, true, remote)
		return simnet.Seq(cost, c), err
	}

	// Primary -> replica refresh: the primary's copy is authoritative for
	// its version; a replica whose root digest already matches holds a
	// byte-identical copy and is left alone (at most re-stamped).
	remote, cost, err := e.peer.DigestTree(tc, target, RepPath(t.Root))
	if err != nil {
		return cost, err
	}
	if lerr == nil && remote.Exists && !remote.Flag && remote.Root == localDigest {
		e.digestHits.Add(1)
		if remote.Ver != t.Ver {
			// Content matches but the replica's recorded version lags (e.g.
			// it missed the mirrors but obtained the bytes elsewhere). One
			// metadata-only op re-stamps it without moving data.
			c, err := e.peer.Mirror(tc, target, t, FSOp{Kind: FSMkdirAll, Path: t.Root}, false)
			return simnet.Seq(cost, c), err
		}
		return cost, nil
	}
	e.digestMisses.Add(1)
	c, err := e.deltaPush(tc, target, t, src, false, remote)
	return simnet.Seq(cost, c), err
}

// PushChunk bounds the payload of a single mirrored write, matching
// fetchTree's read granularity, so arbitrarily large files sync with
// bounded memory on both ends. The client-side streaming data path shares
// this chunk size (core.Config.StreamChunk defaults to it).
const PushChunk = 1 << 20

// FetchWindow is how many PushChunk pieces a pull-repair tree fetch keeps
// in flight per ReadStream round trip.
const FetchWindow = 4

// deltaPush brings target's copy of the subtree (remote, already digested)
// up to date with the local copy at src, shipping only changed files and
// deletions. The migration flag is written at the hierarchy root first and
// removed only after the walk completes (Section 4.4); the tree underneath
// is edited in place, never removed wholesale, so the remote copy stays
// readable throughout.
func (e *Engine) deltaPush(tc obs.TraceContext, target simnet.Addr, t Track, src string, primary bool, remote TreeDigest) (simnet.Cost, error) {
	var total simnet.Cost
	flag := path.Join(t.Root, MigrationFlag)

	add := func(c simnet.Cost) { total = simnet.Seq(total, c) }
	step := func(op FSOp) error {
		c, err := e.peer.Mirror(tc, target, t, op, primary)
		add(c)
		return err
	}

	if !remote.Exists {
		if err := step(FSOp{Kind: FSMkdirAll, Path: t.Root}); err != nil {
			return total, err
		}
	}
	if err := step(FSOp{Kind: FSWriteFile, Path: flag}); err != nil {
		return total, err
	}
	if err := e.syncDir(tc, target, t, src, t.Root, primary, step, add); err != nil {
		return total, err
	}
	err := step(FSOp{Kind: FSRemove, Path: flag})
	return total, err
}

// syncDir reconciles one directory level: it fetches the remote children's
// digests, ships entries whose digest differs (recursing into mismatching
// directories), skips matching subtrees entirely, and deletes remote-only
// entries. localDir is the local source directory, destDir the matching
// primary-relative destination (Mirror translates to the replica area when
// primary is false).
func (e *Engine) syncDir(tc obs.TraceContext, target simnet.Addr, t Track, localDir, destDir string, primary bool, step func(FSOp) error, add func(simnet.Cost)) error {
	queryDir := destDir
	if !primary {
		queryDir = RepPath(destDir)
	}
	remoteEnts, ok, c, err := e.peer.DirDigests(tc, target, queryDir)
	add(c)
	if err != nil {
		return err
	}
	if !ok {
		// Remote side missing or not a directory: (re)create it empty and
		// treat it as having no children. If that clobbered the hierarchy
		// root, re-arm the migration sentinel before copying underneath it.
		if err := step(FSOp{Kind: FSRemoveAll, Path: destDir}); err != nil {
			return err
		}
		if err := step(FSOp{Kind: FSMkdirAll, Path: destDir}); err != nil {
			return err
		}
		if destDir == t.Root {
			if err := step(FSOp{Kind: FSWriteFile, Path: path.Join(t.Root, MigrationFlag)}); err != nil {
				return err
			}
		}
		remoteEnts = nil
	}
	remote := make(map[string]merkle.Entry, len(remoteEnts))
	for _, ent := range remoteEnts {
		remote[ent.Name] = ent
	}
	// The root-level migration flag is protocol state, not content: never
	// shipped, never deleted mid-sync (deltaPush removes it at the end).
	if destDir == t.Root {
		delete(remote, MigrationFlag)
	}

	locals, ok, err := e.mk.Entries(localDir)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	for _, ent := range locals {
		if destDir == t.Root && ent.Name == MigrationFlag {
			continue
		}
		lsrc := joinChild(localDir, ent.Name)
		ldst := joinChild(destDir, ent.Name)
		rem, exists := remote[ent.Name]
		delete(remote, ent.Name)
		if exists && rem.Type == ent.Type && rem.Digest == ent.Digest {
			e.digestHits.Add(1)
			e.syncSkipped.Add(uint64(e.countFiles(lsrc, ent.Type)))
			continue
		}
		if exists {
			e.digestMisses.Add(1)
		}
		switch ent.Type {
		case localfs.TypeDir:
			if exists && rem.Type != localfs.TypeDir {
				if err := step(FSOp{Kind: FSRemoveAll, Path: ldst}); err != nil {
					return err
				}
			}
			if !exists || rem.Type != localfs.TypeDir {
				if err := step(FSOp{Kind: FSMkdirAll, Path: ldst}); err != nil {
					return err
				}
			}
			if err := e.syncDir(tc, target, t, lsrc, ldst, primary, step, add); err != nil {
				return err
			}
		case localfs.TypeSymlink:
			attr, err := e.store.LookupPath(lsrc)
			if err != nil {
				return err
			}
			symTarget, _, err := e.store.Readlink(attr.Ino)
			if err != nil {
				return err
			}
			if exists {
				if err := step(FSOp{Kind: FSRemoveAll, Path: ldst}); err != nil {
					return err
				}
			}
			if err := step(FSOp{Kind: FSSymlink, Path: ldst, Target: symTarget}); err != nil {
				return err
			}
		default:
			if exists && rem.Type != localfs.TypeRegular {
				if err := step(FSOp{Kind: FSRemoveAll, Path: ldst}); err != nil {
					return err
				}
			}
			if err := e.sendFile(tc, target, lsrc, ldst, primary, step, add); err != nil {
				return err
			}
		}
	}
	// Whatever remains on the remote side has no local counterpart: delete,
	// in sorted order so the RPC sequence is deterministic for seed replay.
	staleNames := make([]string, 0, len(remote))
	for name := range remote {
		staleNames = append(staleNames, name)
	}
	sort.Strings(staleNames)
	for _, name := range staleNames {
		if err := step(FSOp{Kind: FSRemoveAll, Path: joinChild(destDir, name)}); err != nil {
			return err
		}
	}
	return nil
}

// sendFile ships one regular file whose digest mismatched. On the normal
// path it negotiates at the block level: the local manifest's hashes are
// offered as a WANT list, the receiver answers which blocks its
// content-addressed index already holds (indexing its stale copy of this
// very file in the process), and only the missing chunks travel inline —
// a 1-changed-chunk file ships ~one chunk.
func (e *Engine) sendFile(tc obs.TraceContext, target simnet.Addr, lsrc, ldst string, primary bool, step func(FSOp) error, add func(simnet.Cost)) error {
	attr, err := e.store.LookupPath(lsrc)
	if err != nil {
		return err
	}
	man, err := e.mk.ManifestOf(lsrc)
	if err != nil {
		return err
	}
	queryPath := ldst
	if !primary {
		queryPath = RepPath(ldst)
	}
	_, exists, have, c, err := e.peer.ChunkManifest(tc, target, queryPath, man.Hashes())
	add(c)
	if err != nil {
		// Negotiation is an optimization, not a dependency: fall back to the
		// verbatim stream (which will surface a real transport failure too).
		return e.sendFileWhole(lsrc, ldst, step)
	}
	if !exists {
		if err := step(FSOp{Kind: FSCreate, Path: ldst, Mode: attr.Mode}); err != nil {
			return err
		}
	}

	// Walk the manifest accumulating contiguous spans of chunks; each span
	// becomes one FSChunkWrite whose inline payload is bounded by PushChunk
	// and whose covered range is bounded by spanBytes, so memory stays
	// bounded on both ends regardless of file size.
	const spanBytes = 4 << 20
	var (
		refs      []ChunkRef
		data      []byte
		spanStart int64
		spanLen   int64
		off       int64
	)
	flush := func() error {
		if len(refs) == 0 {
			return nil
		}
		op := FSOp{Kind: FSChunkWrite, Path: ldst, Offset: spanStart, Chunks: refs, Data: data}
		if err := step(op); err != nil {
			// The receiver could not resolve a reference it promised (its
			// copy mutated between negotiation and apply): re-ship the span
			// verbatim. A transport failure fails the retry as well.
			raw, rerr := e.readRange(attr.Ino, spanStart, spanLen)
			if rerr != nil {
				return err
			}
			if err := step(FSOp{Kind: FSWrite, Path: ldst, Offset: spanStart, Data: raw}); err != nil {
				return err
			}
			e.syncBytes.Add(uint64(len(raw)))
		} else {
			e.syncBytes.Add(uint64(len(data)))
		}
		refs, data = nil, nil
		spanStart, spanLen = off, 0
		return nil
	}
	for i, ch := range man {
		inline := i >= len(have) || !have[i]
		if inline {
			b, err := e.readRange(attr.Ino, off, int64(ch.Len))
			if err != nil {
				return err
			}
			if len(data)+len(b) > PushChunk {
				if err := flush(); err != nil {
					return err
				}
			}
			data = append(data, b...)
		} else if spanLen >= spanBytes {
			if err := flush(); err != nil {
				return err
			}
		}
		refs = append(refs, ChunkRef{Hash: ch.Hash, Len: ch.Len, Inline: inline})
		off += int64(ch.Len)
		spanLen += int64(ch.Len)
	}
	if err := flush(); err != nil {
		return err
	}
	if exists {
		// The old remote file may extend past the new content: truncate.
		size := man.TotalLen()
		if err := step(FSOp{Kind: FSSetattr, Path: ldst, SetAttr: localfs.SetAttr{Size: &size}}); err != nil {
			return err
		}
	}
	e.syncSent.Add(1)
	return nil
}

// readRange reads exactly [off, off+n) of a local file.
func (e *Engine) readRange(ino uint64, off, n int64) ([]byte, error) {
	buf := make([]byte, 0, n)
	for int64(len(buf)) < n {
		data, eof, _, err := e.store.Read(ino, off+int64(len(buf)), int(n-int64(len(buf))))
		if err != nil {
			return nil, err
		}
		buf = append(buf, data...)
		if eof || len(data) == 0 {
			break
		}
	}
	if int64(len(buf)) != n {
		return nil, errors.New("repl: short local read")
	}
	return buf, nil
}

// sendFileWhole ships one regular file verbatim in PushChunk-sized pieces:
// a truncating create, then sequential writes. The fallback when block
// negotiation fails.
func (e *Engine) sendFileWhole(lsrc, ldst string, step func(FSOp) error) error {
	attr, err := e.store.LookupPath(lsrc)
	if err != nil {
		return err
	}
	if err := step(FSOp{Kind: FSCreate, Path: ldst, Mode: attr.Mode}); err != nil {
		return err
	}
	for off := int64(0); ; {
		data, eof, _, err := e.store.Read(attr.Ino, off, PushChunk)
		if err != nil {
			return err
		}
		if len(data) > 0 {
			if err := step(FSOp{Kind: FSWrite, Path: ldst, Offset: off, Data: data}); err != nil {
				return err
			}
			e.syncBytes.Add(uint64(len(data)))
			off += int64(len(data))
		}
		if eof || len(data) == 0 {
			break
		}
	}
	e.syncSent.Add(1)
	return nil
}

// countFiles returns the number of regular files under a matched local
// entry, for the files-skipped counter (a local walk only; no traffic).
func (e *Engine) countFiles(p string, typ localfs.FileType) int {
	if typ == localfs.TypeRegular {
		return 1
	}
	if typ != localfs.TypeDir {
		return 0
	}
	n := 0
	e.store.Walk(p, func(_ string, a localfs.Attr, _ string) error {
		if a.Type == localfs.TypeRegular {
			n++
		}
		return nil
	})
	return n
}

func joinChild(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// fetchTree pulls a remote replica-area copy of a subtree into this node's
// primary namespace, adopting the remote's version. Used when a freshly
// promoted primary discovers a replica holding a newer copy than the one it
// surfaced. On the normal path this is a block-level delta pull: the local
// (promoted, stale) copy is kept as a chunk source, directory digests skip
// identical subtrees, and each mismatching file is rebuilt from its remote
// manifest, fetching only the blocks no local file holds — in parallel from
// every settled holder in holders plus from itself.
func (e *Engine) fetchTree(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, t Track, remoteVer uint64) (simnet.Cost, error) {
	var total simnet.Cost
	src := RepPath(t.Root)
	if _, err := e.store.MkdirAll(t.Root); err != nil {
		return total, err
	}
	if err := e.pullDir(tc, from, holders, src, t.Root, src, &total); err != nil {
		return total, err
	}
	adopted := t
	adopted.Ver = remoteVer
	e.Track(adopted, FSOp{Kind: FSMkdirAll, Path: t.Root})
	return total, nil
}

// pullDir reconciles one local directory against its remote counterpart
// during a delta pull: matching child digests are skipped wholesale,
// mismatching files are rebuilt block-wise, and local-only entries are
// deleted. flagDir is the remote hierarchy root, where the migration
// sentinel is protocol state rather than content.
func (e *Engine) pullDir(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, remoteDir, localDir, flagDir string, total *simnet.Cost) error {
	remoteEnts, ok, c, err := e.peer.DirDigests(tc, from, remoteDir)
	*total = simnet.Seq(*total, c)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	locals := make(map[string]merkle.Entry)
	if ents, lok, err := e.mk.Entries(localDir); err == nil && lok {
		for _, ent := range ents {
			locals[ent.Name] = ent
		}
	}
	for _, ent := range remoteEnts {
		if remoteDir == flagDir && ent.Name == MigrationFlag {
			continue
		}
		rp := joinChild(remoteDir, ent.Name)
		lp := joinChild(localDir, ent.Name)
		l, exists := locals[ent.Name]
		delete(locals, ent.Name)
		if exists && l.Type == ent.Type && l.Digest == ent.Digest {
			e.digestHits.Add(1)
			continue
		}
		if exists {
			e.digestMisses.Add(1)
		}
		switch ent.Type {
		case localfs.TypeDir:
			if exists && l.Type != localfs.TypeDir {
				if err := e.store.RemoveAll(lp); err != nil {
					return err
				}
			}
			if _, err := e.store.MkdirAll(lp); err != nil {
				return err
			}
			if err := e.pullDir(tc, from, holders, rp, lp, flagDir, total); err != nil {
				return err
			}
		case localfs.TypeSymlink:
			target, c, err := e.peer.ReadLink(tc, from, rp)
			*total = simnet.Seq(*total, c)
			if err != nil {
				return err
			}
			if exists {
				if err := e.store.RemoveAll(lp); err != nil {
					return err
				}
			}
			attr, err := e.store.LookupPath(path.Dir(lp))
			if err != nil {
				return err
			}
			if _, _, err := e.store.Symlink(attr.Ino, ent.Name, target); err != nil {
				return err
			}
		default:
			if exists && l.Type != localfs.TypeRegular {
				if err := e.store.RemoveAll(lp); err != nil {
					return err
				}
			}
			if err := e.pullFile(tc, from, holders, rp, lp, total); err != nil {
				return err
			}
		}
	}
	staleNames := make([]string, 0, len(locals))
	for name := range locals {
		staleNames = append(staleNames, name)
	}
	sort.Strings(staleNames)
	for _, name := range staleNames {
		if err := e.store.RemoveAll(joinChild(localDir, name)); err != nil {
			return err
		}
	}
	return nil
}

// pullFile rebuilds one local file from its remote chunk manifest. Blocks
// some indexed local file already holds are copied locally; the rest are
// fetched content-addressed from the holder swarm, with a ranged read from
// `from` as the per-block last resort. The new content is assembled fully
// before the local file is overwritten, so the stale copy stays available
// as a chunk source throughout.
func (e *Engine) pullFile(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, rp, lp string, total *simnet.Cost) error {
	man, exists, _, c, err := e.peer.ChunkManifest(tc, from, rp, nil)
	*total = simnet.Seq(*total, c)
	if err != nil {
		return err
	}
	if !exists {
		return e.pullFileWhole(tc, from, rp, lp, total)
	}
	// Index the stale local copy (if any): its unchanged blocks then resolve
	// locally instead of over the network.
	if attr, lerr := e.store.LookupPath(lp); lerr == nil && attr.Type == localfs.TypeRegular {
		e.mk.ManifestOf(lp)
	}
	lens := make(map[cas.Hash]uint32, len(man))
	var need []cas.Hash
	for _, ch := range man {
		if _, dup := lens[ch.Hash]; dup {
			continue
		}
		lens[ch.Hash] = ch.Len
		if !e.cas.Has(ch.Hash) {
			need = append(need, ch.Hash)
		}
	}
	blocks := make(map[cas.Hash][]byte)
	if len(need) > 0 {
		e.fetchBlocks(tc, from, holders, rp, need, lens, blocks, total)
	}
	buf := make([]byte, 0, man.TotalLen())
	var off int64
	var fh nfs.Handle
	haveFh := false
	for _, ch := range man {
		if b, ok := blocks[ch.Hash]; ok {
			buf = append(buf, b...)
			off += int64(ch.Len)
			continue
		}
		if b, ok := e.cas.Get(ch.Hash); ok && len(b) == int(ch.Len) {
			buf = append(buf, b...)
			off += int64(ch.Len)
			continue
		}
		// Last resort: a ranged read of this chunk's extent from `from`.
		if !haveFh {
			var c simnet.Cost
			fh, _, c, err = e.peer.LookupPath(tc, from, rp)
			*total = simnet.Seq(*total, c)
			if err != nil {
				return err
			}
			haveFh = true
		}
		b := make([]byte, 0, ch.Len)
		for int64(len(b)) < int64(ch.Len) {
			part, eof, c, err := e.peer.ReadStream(tc, from, fh, off+int64(len(b)), int(ch.Len)-len(b), 1)
			*total = simnet.Seq(*total, c)
			if err != nil {
				return err
			}
			b = append(b, part...)
			if eof || len(part) == 0 {
				break
			}
		}
		if len(b) != int(ch.Len) {
			return errors.New("repl: short ranged chunk read")
		}
		e.fetchBytes.Add(uint64(len(b)))
		blocks[ch.Hash] = b
		buf = append(buf, b...)
		off += int64(ch.Len)
	}
	return e.store.WriteFile(lp, buf)
}

// pullFileWhole streams one remote file verbatim — the fallback when the
// remote cannot answer a manifest.
func (e *Engine) pullFileWhole(tc obs.TraceContext, from simnet.Addr, rp, lp string, total *simnet.Cost) error {
	fh, attr, c, err := e.peer.LookupPath(tc, from, rp)
	*total = simnet.Seq(*total, c)
	if err != nil {
		return err
	}
	data := make([]byte, 0, attr.Size)
	for off := int64(0); ; {
		chunk, eof, c, err := e.peer.ReadStream(tc, from, fh, off, PushChunk, FetchWindow)
		*total = simnet.Seq(*total, c)
		if err != nil {
			return err
		}
		data = append(data, chunk...)
		off += int64(len(chunk))
		if eof || len(chunk) == 0 {
			break
		}
	}
	e.fetchBytes.Add(uint64(len(data)))
	return e.store.WriteFile(lp, data)
}

// fetchBatch bounds how many blocks one CHUNK_FETCH round trip requests.
const fetchBatch = 16

// fetchBlocks retrieves the needed blocks from the holder swarm: the WANT
// list is partitioned round-robin across `from` plus every other settled
// holder, each holder's batches run as one branch of a simnet.Par fan-out,
// and every returned block is verified against its hash. Blocks a holder
// failed to serve are retried from `from`; whatever still cannot be
// obtained is simply left out of the result (pullFile falls back to a
// ranged read). The holder order is deterministic for seed-exact replay.
func (e *Engine) fetchBlocks(tc obs.TraceContext, from simnet.Addr, holders []simnet.Addr, pathHint string, need []cas.Hash, lens map[cas.Hash]uint32, out map[cas.Hash][]byte, total *simnet.Cost) {
	swarm := []simnet.Addr{from}
	seen := map[simnet.Addr]bool{from: true, e.self: true}
	sorted := append([]simnet.Addr(nil), holders...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, h := range sorted {
		if !seen[h] {
			seen[h] = true
			swarm = append(swarm, h)
		}
	}
	assign := make([][]cas.Hash, len(swarm))
	for i, h := range need {
		assign[i%len(swarm)] = append(assign[i%len(swarm)], h)
	}
	e.mu.Lock()
	hook := e.fetchHook
	e.mu.Unlock()

	accept := func(holder simnet.Addr, batch []cas.Hash, blocks [][]byte, missing *[]cas.Hash) {
		for i, h := range batch {
			var b []byte
			if i < len(blocks) {
				b = blocks[i]
			}
			if b == nil || len(b) != int(lens[h]) || cas.SumChunk(b) != h {
				if missing != nil {
					*missing = append(*missing, h)
				}
				continue
			}
			out[h] = b
			e.blocksFetched.Add(1)
			e.fetchBytes.Add(uint64(len(b)))
		}
	}

	var missing []cas.Hash
	var fan []simnet.Cost
	for hi, holder := range swarm {
		var hc simnet.Cost
		hashes := assign[hi]
		for start := 0; start < len(hashes); start += fetchBatch {
			end := start + fetchBatch
			if end > len(hashes) {
				end = len(hashes)
			}
			batch := hashes[start:end]
			blocks, c, err := e.peer.ChunkFetch(tc, holder, pathHint, batch)
			hc = simnet.Seq(hc, c)
			if hook != nil {
				hook(holder, len(batch))
			}
			if err != nil {
				missing = append(missing, hashes[start:]...)
				break
			}
			accept(holder, batch, blocks, &missing)
		}
		fan = append(fan, hc)
	}
	*total = simnet.Seq(*total, simnet.Par(fan...))

	// Retry pass against `from` for anything a holder could not serve.
	var unresolved []cas.Hash
	for start := 0; start < len(missing); start += fetchBatch {
		end := start + fetchBatch
		if end > len(missing) {
			end = len(missing)
		}
		batch := missing[start:end]
		blocks, c, err := e.peer.ChunkFetch(tc, from, pathHint, batch)
		*total = simnet.Seq(*total, c)
		if hook != nil {
			hook(from, len(batch))
		}
		if err != nil {
			unresolved = append(unresolved, missing[start:]...)
			break
		}
		accept(from, batch, blocks, &unresolved)
	}

	// Routed-holder fallback: when the leaf-set swarm came up empty, ask the
	// node that routing says owns the subtree's key — it serves the file at
	// its primary path. This covers the window where the candidates around us
	// are fresh (post-heal) but the settled owner is outside the leaf set.
	if len(unresolved) == 0 {
		return
	}
	alt, altCost, ok := e.routedSource(pathHint)
	*total = simnet.Seq(*total, altCost)
	if !ok || seen[alt] {
		return
	}
	altHint := PrimaryRoot(pathHint)
	for start := 0; start < len(unresolved); start += fetchBatch {
		end := start + fetchBatch
		if end > len(unresolved) {
			end = len(unresolved)
		}
		batch := unresolved[start:end]
		blocks, c, err := e.peer.ChunkFetch(tc, alt, altHint, batch)
		*total = simnet.Seq(*total, c)
		if hook != nil {
			hook(alt, len(batch))
		}
		if err != nil {
			return
		}
		before := len(out)
		accept(alt, batch, blocks, nil)
		e.routedFetched.Add(uint64(len(out) - before))
	}
}

// routedSource resolves the node that currently owns the key controlling the
// subtree containing pathHint (a physical path, possibly replica-area). The
// longest tracked-root prefix wins, keeping the lookup deterministic when
// nested hierarchies are tracked.
func (e *Engine) routedSource(pathHint string) (simnet.Addr, simnet.Cost, bool) {
	p := PrimaryRoot(pathHint)
	e.mu.Lock()
	var pn string
	best := -1
	for root, t := range e.tracked {
		if (root == p || strings.HasPrefix(p, root+"/")) && len(root) > best {
			pn, best = t.PN, len(root)
		}
	}
	e.mu.Unlock()
	if best < 0 || e.key == nil {
		return "", 0, false
	}
	res, err := e.ov.Route(e.key(pn))
	if err != nil || res.Node.Addr == e.self {
		return "", res.Cost, false
	}
	return res.Node.Addr, res.Cost, true
}

// AdoptRoot makes this node's primary-path copy of a subtree current after
// it becomes the key's owner: surface the local replica-area copy, then
// check the current replica candidates for a newer version and fetch it if
// one exists. Runs on the cold path only (first access after an ownership
// change, or replica synchronization). The second result reports whether
// read-repair changed local state — callers holding handles into the
// subtree must re-resolve when it did.
func (e *Engine) AdoptRoot(tc obs.TraceContext, t Track) (simnet.Cost, bool) {
	changed := e.PromoteLocal(t)
	if t.Root == "" || t.Link != "" {
		return 0, changed
	}
	var total simnet.Cost
	cands := e.ov.ReplicaCandidates(e.replicas)
	stats := make([]TreeStat, len(cands))
	alive := make([]bool, len(cands))
	for i, rep := range cands {
		st, c, err := e.peer.StatTree(tc, rep.Addr, RepPath(t.Root))
		total = simnet.Seq(total, c)
		if err != nil {
			continue
		}
		stats[i] = st
		alive[i] = true
	}
	// Read the local version only once every replica has answered. A
	// replica holds no version this node stamped before recording it, so a
	// mutation applied here while the stats were in flight cannot make its
	// replica copy look newer than the local tree, and a concurrent writer
	// never has its entries rolled back by a pull.
	myVer := e.VerOf(t.Root)
	for i, rep := range cands {
		if !alive[i] {
			continue
		}
		st := stats[i]
		if st.Flag || st.Ver <= myVer {
			continue
		}
		if !st.Exists {
			// The newer state is a deletion: adopt the tombstone.
			e.store.RemoveAll(t.Root)
			e.store.RemoveAll(RepPath(t.Root))
			dead := t
			dead.Ver = st.Ver
			e.Track(dead, FSOp{Kind: FSRemoveAll, Path: t.Root})
			myVer = st.Ver
			changed = true
			continue
		}
		// Every other candidate holding a settled copy can serve blocks for
		// the fetch, bitswap-style, in parallel with the version's holder.
		var holders []simnet.Addr
		for j, other := range cands {
			if j != i && alive[j] && stats[j].Exists && !stats[j].Flag {
				holders = append(holders, other.Addr)
			}
		}
		c, err := e.fetchTree(tc, rep.Addr, holders, t, st.Ver)
		total = simnet.Seq(total, c)
		if err == nil {
			myVer = st.Ver
			changed = true
		}
	}
	return total, changed
}

// ManifestLocal returns the chunk manifest of the local regular file at
// phys, computing and indexing it as needed — the CHUNK_MANIFEST server
// primitive. ok is false when phys is missing or not a regular file.
func (e *Engine) ManifestLocal(phys string) (cas.Manifest, bool) {
	attr, err := e.store.LookupPath(phys)
	if err != nil || attr.Type != localfs.TypeRegular {
		return nil, false
	}
	m, err := e.mk.ManifestOf(phys)
	if err != nil {
		return nil, false
	}
	return m, true
}

// HaveBlocks answers a HAVE query against the local block index.
func (e *Engine) HaveBlocks(hs []cas.Hash) []bool { return e.cas.HasAll(hs) }

// GetBlock serves one block's bytes from the local index (hash-verified) —
// the CHUNK_FETCH server primitive.
func (e *Engine) GetBlock(h cas.Hash) ([]byte, bool) { return e.cas.Get(h) }

// CASStats snapshots the block index accounting (dedup experiment).
func (e *Engine) CASStats() cas.StoreStats { return e.cas.Stats() }

// SetFetchHook installs a test hook invoked after every CHUNK_FETCH round
// trip a pull repair issues (holder address plus batch size). The chaos
// harness uses it to crash holders mid-fetch at a deterministic point.
func (e *Engine) SetFetchHook(fn func(holder simnet.Addr, blocks int)) {
	e.mu.Lock()
	e.fetchHook = fn
	e.mu.Unlock()
}

// ErrMissingChunk reports an FSChunkWrite reference the receiver could not
// resolve from its block index; the sender answers by re-shipping the span
// verbatim.
var ErrMissingChunk = errors.New("repl: referenced chunk not present locally")

// AssembleChunks materializes an FSChunkWrite span's bytes on the receiver:
// inline chunks are consumed from op.Data in order, references resolve
// against the local block index (or chunks appearing earlier in the same
// span). Every chunk is verified against its hash before use.
func (e *Engine) AssembleChunks(op FSOp) ([]byte, error) {
	var size int
	for _, cr := range op.Chunks {
		size += int(cr.Len)
	}
	buf := make([]byte, 0, size)
	data := op.Data
	local := make(map[cas.Hash][]byte)
	for _, cr := range op.Chunks {
		if cr.Inline {
			if len(data) < int(cr.Len) {
				return nil, ErrMissingChunk
			}
			b := data[:cr.Len]
			data = data[cr.Len:]
			if cas.SumChunk(b) != cr.Hash {
				return nil, ErrMissingChunk
			}
			buf = append(buf, b...)
			local[cr.Hash] = b
			continue
		}
		if b, ok := local[cr.Hash]; ok {
			buf = append(buf, b...)
			continue
		}
		b, ok := e.cas.Get(cr.Hash)
		if !ok || len(b) != int(cr.Len) {
			return nil, ErrMissingChunk
		}
		buf = append(buf, b...)
		local[cr.Hash] = b
	}
	return buf, nil
}
