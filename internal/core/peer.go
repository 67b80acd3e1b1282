package core

import (
	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/repl"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// engineOverlay adapts the node's Pastry instance to repl.Overlay. It reads
// n.overlay at call time because Revive replaces the overlay object.
type engineOverlay struct{ n *Node }

func (o engineOverlay) EnsureRootFor(key id.ID) (bool, simnet.Cost) {
	return o.n.overlay.EnsureRootFor(key)
}

func (o engineOverlay) ReplicaCandidates(k int) []pastry.NodeInfo {
	return o.n.overlay.ReplicaCandidates(k)
}

func (o engineOverlay) Route(key id.ID) (pastry.RouteResult, error) {
	return o.n.overlay.Route(key)
}

// enginePeer adapts the node's kosha-service and NFS clients to repl.Peer.
type enginePeer struct{ n *Node }

func (p enginePeer) Mirror(tc obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	return p.n.mirrorArea(tc, to, t, op, primary)
}

func (p enginePeer) StatTree(tc obs.TraceContext, to simnet.Addr, root string) (TreeStat, simnet.Cost, error) {
	return p.n.remoteStatTree(tc, to, root)
}

func (p enginePeer) Promote(tc obs.TraceContext, to simnet.Addr, t Track) (bool, simnet.Cost, error) {
	return p.n.promote(tc, to, t)
}

func (p enginePeer) DigestTree(tc obs.TraceContext, to simnet.Addr, root string) (TreeDigest, simnet.Cost, error) {
	return p.n.remoteDigestTree(tc, to, root)
}

func (p enginePeer) DirDigests(tc obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	return p.n.remoteDirDigests(tc, to, dir)
}

func (p enginePeer) LookupPath(tc obs.TraceContext, to simnet.Addr, phys string) (nfs.Handle, localfs.Attr, simnet.Cost, error) {
	return p.n.remoteLookupPath(tc, to, phys)
}

func (p enginePeer) ReadStream(tc obs.TraceContext, to simnet.Addr, fh nfs.Handle, off int64, chunk, chunks int) ([]byte, bool, simnet.Cost, error) {
	return p.n.nfsCtx(tc).ReadStream(to, fh, off, chunk, chunks)
}

func (p enginePeer) ReadLink(tc obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error) {
	return p.n.readLink(tc, to, phys)
}

func (p enginePeer) ChunkManifest(tc obs.TraceContext, to simnet.Addr, phys string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	return p.n.remoteChunkManifest(tc, to, phys, want)
}

func (p enginePeer) ChunkFetch(tc obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	return p.n.remoteChunkFetch(tc, to, phys, hashes)
}

var _ repl.Peer = enginePeer{}
var _ repl.Overlay = engineOverlay{}

// --- kosha service (client side) ---

// apply sends a mutation to the primary for key at addr. A traced op records
// the serving node, the replica fan-out width, and an apply span.
func (n *Node) apply(tr *obs.Op, to simnet.Addr, key id.ID, t Track, op FSOp) (localfs.Attr, nfs.Handle, simnet.Cost, error) {
	e := encodeApplyReq(kApply, applyReq{Key: key, Track: t, Op: op})
	resp, cost, err := n.callKosha(tr.Ctx(), to, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return localfs.Attr{}, nfs.Handle{}, cost, n.noteErr(to, err)
	}
	d := wire.NewDecoder(resp)
	code := d.Uint32()
	attr, fh, fanout := getApplyReplyBody(d)
	if d.Err() != nil {
		return localfs.Attr{}, nfs.Handle{}, cost, d.Err()
	}
	if err := codeToError(code); err != nil {
		return attr, fh, cost, err
	}
	if tr != nil {
		tr.Child(obs.SpanRecord{Name: "apply", Node: string(to), DurNS: int64(cost)})
		tr.Root.ServedBy = string(to)
		if fanout > 0 {
			tr.Root.Replicas = fanout
		}
	}
	return attr, fh, cost, nil
}

// mirrorArea ships a mutation to another node; primary selects the
// namespace it lands in.
func (n *Node) mirrorArea(tc obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	e := encodeApplyReq(kMirror, applyReq{Track: t, Op: op, Primary: primary})
	defer wire.PutEncoder(e)
	return n.sendMirror(tc, to, e.Bytes())
}

// sendMirror sends one encoded kMirror request. The primary's fan-out
// encodes the request once and sends the same frame to every replica.
func (n *Node) sendMirror(tc obs.TraceContext, to simnet.Addr, req []byte) (simnet.Cost, error) {
	resp, cost, err := n.callKosha(tc, to, req)
	if err != nil {
		return cost, n.noteErr(to, err)
	}
	d := wire.NewDecoder(resp)
	code := d.Uint32()
	if d.Err() != nil {
		return cost, d.Err()
	}
	return cost, codeToError(code)
}

// remoteStatTree summarizes a subtree on another node.
func (n *Node) remoteStatTree(tc obs.TraceContext, to simnet.Addr, root string) (TreeStat, simnet.Cost, error) {
	e := wire.GetEncoder(64)
	e.PutUint32(kStatTree)
	e.PutString(root)
	resp, cost, err := n.callKosha(tc, to, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return TreeStat{}, cost, n.noteErr(to, err)
	}
	d := wire.NewDecoder(resp)
	if code := d.Uint32(); code != codeOK {
		return TreeStat{}, cost, codeToError(code)
	}
	st := TreeStat{Exists: d.Bool(), Files: d.Int64(), Dirs: d.Int64(), Bytes: d.Int64(), Flag: d.Bool(), Ver: d.Uint64()}
	return st, cost, d.Err()
}

// remoteDigestTree fetches the Merkle digest summary of a subtree on
// another node.
func (n *Node) remoteDigestTree(tc obs.TraceContext, to simnet.Addr, root string) (TreeDigest, simnet.Cost, error) {
	e := wire.GetEncoder(64)
	e.PutUint32(kTreeDigest)
	e.PutString(root)
	resp, cost, err := n.callKosha(tc, to, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return TreeDigest{}, cost, n.noteErr(to, err)
	}
	d := wire.NewDecoder(resp)
	if code := d.Uint32(); code != codeOK {
		return TreeDigest{}, cost, codeToError(code)
	}
	td := TreeDigest{Exists: d.Bool(), Flag: d.Bool(), Ver: d.Uint64(), Root: merkle.GetDigest(d)}
	return td, cost, d.Err()
}

// remoteDirDigests lists the immediate children of a remote directory with
// their subtree digests; ok is false when the directory is missing.
func (n *Node) remoteDirDigests(tc obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	e := wire.GetEncoder(64)
	e.PutUint32(kDirDigests)
	e.PutString(dir)
	resp, cost, err := n.callKosha(tc, to, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, false, cost, n.noteErr(to, err)
	}
	d := wire.NewDecoder(resp)
	if code := d.Uint32(); code != codeOK {
		return nil, false, cost, codeToError(code)
	}
	ok := d.Bool()
	ents := merkle.GetEntries(d)
	return ents, ok, cost, d.Err()
}

// remoteChunkManifest fetches the chunk manifest of a remote regular file
// plus the remote block index's HAVE bits for a WANT list (CHUNK_MANIFEST).
// A short or missing HAVE reply is normalized to all-false: negotiation is
// an optimization, so "don't know" must read as "ship it".
func (n *Node) remoteChunkManifest(tc obs.TraceContext, to simnet.Addr, phys string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	e := wire.GetEncoder(64 + len(want)*32)
	e.PutUint32(kChunkManifest)
	e.PutString(phys)
	cas.PutHashes(e, want)
	resp, cost, err := n.callKosha(tc, to, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, false, nil, cost, n.noteErr(to, err)
	}
	d := wire.NewDecoder(resp)
	if code := d.Uint32(); code != codeOK {
		return nil, false, nil, cost, codeToError(code)
	}
	exists := d.Bool()
	man := cas.GetManifest(d)
	have := cas.GetBools(d)
	if d.Err() != nil {
		return nil, false, nil, cost, d.Err()
	}
	if len(have) != len(want) {
		have = make([]bool, len(want))
	}
	return man, exists, have, cost, nil
}

// remoteChunkFetch retrieves blocks by content hash (CHUNK_FETCH); blocks[i]
// is nil for hashes the remote could not serve. The engine verifies every
// returned block against its hash, so no verification happens here.
func (n *Node) remoteChunkFetch(tc obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	e := wire.GetEncoder(64 + len(hashes)*32)
	e.PutUint32(kChunkFetch)
	e.PutString(phys)
	cas.PutHashes(e, hashes)
	resp, cost, err := n.callKosha(tc, to, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, cost, n.noteErr(to, err)
	}
	d := wire.NewDecoder(resp)
	if code := d.Uint32(); code != codeOK {
		return nil, cost, codeToError(code)
	}
	blocks := getChunkBlocks(d)
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	return blocks, cost, nil
}

// getChunkBlocks decodes a CHUNK_FETCH reply's counted block vector: per
// hash a present flag, then the block when present. The count only bounds
// the loop; pre-allocation is capped by the bytes left (at least a 4-byte
// flag per entry) and decoding stops at the first error.
func getChunkBlocks(d *wire.Decoder) [][]byte {
	cnt := d.ArrayLen()
	blocks := make([][]byte, 0, d.PreallocCap(cnt, 4))
	for i := 0; i < cnt; i++ {
		var b []byte
		if d.Bool() {
			b = d.Opaque()
		}
		if d.Err() != nil {
			break
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// replicaSet asks the primary for its current replica holders of a key,
// caching the answer per subtree root. The cache is dropped whenever the
// node's view of membership changes.
func (n *Node) replicaSet(tc obs.TraceContext, primary simnet.Addr, key id.ID, root string) ([]simnet.Addr, simnet.Cost, error) {
	n.mu.Lock()
	if reps, ok := n.replicaCache[root]; ok {
		n.mu.Unlock()
		return reps, 0, nil
	}
	n.mu.Unlock()
	e := wire.GetEncoder(32)
	e.PutUint32(kReplicas)
	e.PutFixedOpaque(key[:])
	resp, cost, err := n.callKosha(tc, primary, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, cost, n.noteErr(primary, err)
	}
	d := wire.NewDecoder(resp)
	if code := d.Uint32(); code != codeOK {
		return nil, cost, codeToError(code)
	}
	reps := getAddrs(d)
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	n.mu.Lock()
	n.replicaCache[root] = reps
	n.mu.Unlock()
	return reps, cost, nil
}

// getAddrs decodes a counted vector of node addresses (the replica-set
// reply), with the pre-allocation capped by the bytes left (a string is at
// least its 4-byte length) and decoding stopped at the first error.
func getAddrs(d *wire.Decoder) []simnet.Addr {
	cnt := d.ArrayLen()
	addrs := make([]simnet.Addr, 0, d.PreallocCap(cnt, 4))
	for i := 0; i < cnt; i++ {
		a := simnet.Addr(d.String())
		if d.Err() != nil {
			break
		}
		addrs = append(addrs, a)
	}
	return addrs
}

// dropRootHandle forgets a cached export root handle. A node that crashed
// and rejoined re-incarnates its store under a new handle generation, so a
// caller observing ErrStale on a cached handle drops it and refetches.
func (n *Node) dropRootHandle(to simnet.Addr) {
	n.mu.Lock()
	delete(n.rootHandles, to)
	n.mu.Unlock()
}

// remoteFSStat fetches FSSTAT from a node's export, refreshing a stale
// cached root handle once.
func (n *Node) remoteFSStat(to simnet.Addr) (nfs.FSStat, simnet.Cost, error) {
	var total simnet.Cost
	for attempt := 0; ; attempt++ {
		rootH, c, err := n.rootHandle(to)
		total = simnet.Seq(total, c)
		if err != nil {
			return nfs.FSStat{}, total, err
		}
		st, c, err := n.nfsc.FSStat(to, rootH)
		total = simnet.Seq(total, c)
		if err != nil && nfs.IsStatus(err, nfs.ErrStale) && attempt == 0 {
			n.dropRootHandle(to)
			continue
		}
		return st, total, err
	}
}

// rootHandle returns (and caches) the NFS root handle of a node's export.
func (n *Node) rootHandle(to simnet.Addr) (nfs.Handle, simnet.Cost, error) {
	n.mu.Lock()
	h, ok := n.rootHandles[to]
	n.mu.Unlock()
	if ok {
		return h, 0, nil
	}
	h, cost, err := n.nfsc.MountRoot(to)
	if err != nil {
		return nfs.Handle{}, cost, err
	}
	n.mu.Lock()
	n.rootHandles[to] = h
	n.mu.Unlock()
	return h, cost, nil
}

// promote asks target to move its replica-area copy to the primary path and
// run read-repair against the current replica set. The changed result
// reports whether the target's state moved — handles resolved before the
// call may then be stale and must be re-resolved.
func (n *Node) promote(tc obs.TraceContext, to simnet.Addr, t Track) (changed bool, cost simnet.Cost, err error) {
	e := wire.GetEncoder(128)
	e.PutUint32(kPromote)
	putTrack(e, t)
	resp, cost, err := n.callKosha(tc, to, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return false, cost, n.noteErr(to, err)
	}
	d := wire.NewDecoder(resp)
	if cerr := codeToError(d.Uint32()); cerr != nil {
		return false, cost, cerr
	}
	return d.Bool(), cost, nil
}
