package core

import (
	"path"
	"sort"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Directory namespace operations: create, list, remove, and rename. These
// are the operations that interact with placement — distributed levels hash
// each directory to its own node (Sections 3.2-3.3) while deeper levels stay
// on the parent's node — so their bodies branch on distributedAt.

// Mkdir creates a directory. Directories within the distribution level are
// hashed to their own node, with capacity redirection (Sections 3.2-3.3);
// deeper directories stay on the parent's node.
func (m *Mount) Mkdir(dir VH, name string, mode uint32) (VH, localfs.Attr, simnet.Cost, error) {
	o := m.beginAt(obs.OpcMkdir, dir, name)
	vh, attr, cost, err := m.mkdir(o.tr, dir, name, mode)
	o.done(cost, err)
	return vh, attr, cost, err
}

func (m *Mount) mkdir(tr *obs.Op, dir VH, name string, mode uint32) (VH, localfs.Attr, simnet.Cost, error) {
	if err := ValidName(name); err != nil {
		return 0, localfs.Attr{}, m.n.cfg.InterposeCost, err
	}
	var out VH
	var attr localfs.Attr
	cost, err := m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		if de.kind != localfs.TypeDir {
			return 0, &nfs.Error{Proc: nfs.ProcMkdir, Status: nfs.ErrNotDir}
		}
		if m.distributedAt(de) {
			vh, a, c, err := m.mkdirDistributed(tr, de, name, mode)
			if err != nil {
				return c, err
			}
			out, attr = vh, a
			return c, nil
		}
		phys := path.Join(de.physPath, name)
		a, fh, c, err := m.n.apply(tr, de.node, Key(de.pn), Track{PN: de.pn, Root: de.root},
			FSOp{Kind: FSMkdir, Path: phys, Mode: mode})
		if err != nil {
			return c, err
		}
		attr = a
		vpath := path.Join(de.vpath, name)
		m.dropMetaUnder(vpath)
		m.invalAttr(de.vpath)
		childPlace := de.place
		childPlace.Rest = append(append([]string(nil), de.place.Rest...), name)
		out = m.insert(&ventry{
			vpath:    vpath,
			kind:     localfs.TypeDir,
			node:     de.node,
			fh:       fh,
			physPath: phys,
			pn:       de.pn,
			root:     de.root,
			place:    childPlace,
		})
		return c, nil
	})
	return out, attr, cost, err
}

// mkdirDistributed creates a directory at a distributed level: hash the
// name, route, redirect with salts while the target is above the
// utilization limit, create the hierarchy on the chosen node, and place a
// special link in the parent when needed (Section 3.3).
func (m *Mount) mkdirDistributed(tr *obs.Op, parent *ventry, name string, mode uint32) (VH, localfs.Attr, simnet.Cost, error) {
	n := m.n
	var total simnet.Cost

	// Where resolution will probe for this name (and where a special link
	// would live): the original hash target for level-1 directories, the
	// parent's node otherwise.
	var linkNode simnet.Addr
	var linkDir string
	var linkKey = Key(name)
	var linkTrack Track
	if parent.place.VRoot {
		res, c, err := n.route(tr, Key(name))
		total = simnet.Seq(total, c)
		if err != nil {
			return 0, localfs.Attr{}, total, err
		}
		linkNode, linkDir = res.Node.Addr, "/"
		linkTrack = Track{PN: name, Link: path.Join("/", name)}
	} else {
		linkNode, linkDir = parent.node, parent.physPath
		linkKey = Key(parent.pn)
		linkTrack = Track{PN: parent.pn, Root: parent.root}
	}

	// Existence check at the probe location.
	if _, _, c, err := n.remoteLookupPath(tr.Ctx(), linkNode, path.Join(linkDir, name)); err == nil {
		return 0, localfs.Attr{}, simnet.Seq(total, c), &nfs.Error{Proc: nfs.ProcMkdir, Status: nfs.ErrExist}
	} else {
		total = simnet.Seq(total, c)
		if !nfs.IsStatus(err, nfs.ErrNoEnt) {
			return 0, localfs.Attr{}, total, err
		}
	}

	// Choose the placement name and node, redirecting on full targets:
	// "the redirection process repeats till a node with enough disk space
	// is found, or a pre-specified number of retries is exhausted".
	var pn string
	var target simnet.Addr
	chosen := false
	for attempt := 0; attempt <= n.cfg.RedirectAttempts; attempt++ {
		pn = Salted(name, attempt)
		res, c, err := n.route(tr, Key(pn))
		total = simnet.Seq(total, c)
		if err != nil {
			return 0, localfs.Attr{}, total, err
		}
		target = res.Node.Addr
		st, c, err := n.remoteFSStat(target)
		total = simnet.Seq(total, c)
		if err != nil {
			continue
		}
		if st.TotalBytes == 0 || float64(st.UsedBytes)/float64(st.TotalBytes) < n.cfg.UtilizationLimit {
			chosen = true
			break
		}
	}
	if !chosen {
		return 0, localfs.Attr{}, total, &nfs.Error{Proc: nfs.ProcMkdir, Status: nfs.ErrNoSpc}
	}

	// An unsalted level-1 home sits at its own hash target under its plain
	// name and needs no link; every other distributed directory gets a
	// fresh, unique storage root behind a special link, so a later rename
	// or re-creation can never alias its storage (see MakeLinkTarget).
	needLink := !(parent.place.VRoot && pn == name)
	var subRoot string
	if needLink {
		subRoot = n.newStoreRoot(pn)
	} else {
		subRoot = "/" + pn
	}

	// Create the subtree root on the chosen node.
	attr, fh, c, err := n.apply(tr, target, Key(pn), Track{PN: pn, Root: subRoot},
		FSOp{Kind: FSMkdirAll, Path: subRoot, Mode: mode})
	total = simnet.Seq(total, c)
	if err != nil {
		return 0, localfs.Attr{}, total, err
	}

	if needLink {
		_, _, c, err := n.apply(tr, linkNode, linkKey, linkTrack,
			FSOp{Kind: FSSymlink, Path: path.Join(linkDir, name), Target: MakeLinkTarget(pn, subRoot)})
		total = simnet.Seq(total, c)
		if err != nil {
			return 0, localfs.Attr{}, total, err
		}
	}

	place := Place{Node: target, Name: pn, Store: subRoot}
	vpath := path.Join(parent.vpath, name)
	n.cachePut(vpath, place)
	vh := m.insert(&ventry{
		vpath:    vpath,
		kind:     localfs.TypeDir,
		node:     target,
		fh:       fh,
		physPath: subRoot,
		pn:       pn,
		root:     subRoot,
		place:    place,
	})
	return vh, attr, total, nil
}

// Readdir lists a virtual directory: physical entries minus Kosha-internal
// names, with special links reported as the directories they stand for
// (Section 3.3: the link's name "helps Kosha list the directory contents of
// the parent directory"). One READDIRPLUS reply carries every entry's
// handle, attributes, and symlink target, so classifying special links
// needs no per-entry READLINK, and below the distribution level the reply
// pre-warms the name and attribute caches: a following stat-all-entries
// sweep issues no RPCs at all (the N+1 round trips collapse into 1).
func (m *Mount) Readdir(dir VH) ([]DirEntry, simnet.Cost, error) {
	o := m.begin(obs.OpcReaddir, m.vpathOf(dir))
	ents, cost, err := m.readdir(o.tr, dir)
	o.done(cost, err)
	return ents, cost, err
}

func (m *Mount) readdir(tr *obs.Op, dir VH) ([]DirEntry, simnet.Cost, error) {
	de, err := m.entry(dir)
	if err != nil {
		return nil, m.n.cfg.InterposeCost, err
	}
	if de.place.VRoot {
		return m.readdirRoot(tr)
	}
	var out []DirEntry
	cost, err := m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		ents, c, err := m.n.nfsT(tr).ReaddirPlusAll(de.node, de.fh, 256)
		if err != nil {
			return c, err
		}
		// Children of a sub-distribution-level directory live on the
		// parent's node and their handles came back in the reply, so each
		// is a complete lookup result worth caching. Distributed levels
		// resolve through the overlay instead and are left alone.
		prewarm := !m.distributedAt(de)
		out = out[:0]
		for _, e := range ents {
			if Hidden(e.Name) {
				continue
			}
			if e.Type == localfs.TypeSymlink {
				if _, _, ok := ParseLinkTarget(e.SymTarget); ok {
					// Special placement link: a directory on another node.
					out = append(out, DirEntry{Name: e.Name, Type: localfs.TypeDir})
					continue
				}
			}
			out = append(out, DirEntry{Name: e.Name, Type: e.Type})
			if prewarm {
				childPlace := de.place
				childPlace.Rest = append(append([]string(nil), de.place.Rest...), e.Name)
				m.dnlcPut(ventry{
					vpath:    path.Join(de.vpath, e.Name),
					kind:     e.Type,
					node:     de.node,
					fh:       e.FH,
					physPath: path.Join(de.physPath, e.Name),
					pn:       de.pn,
					root:     de.root,
					place:    childPlace,
				}, e.Attr)
			}
		}
		return c, nil
	})
	return out, cost, err
}

// readdirRoot lists the virtual root: "the /kosha/$USER directory actually
// corresponds to the union of the /kosha_store/$USER directories on all
// nodes" (Section 3) — the root listing is the union of store roots.
func (m *Mount) readdirRoot(tr *obs.Op) ([]DirEntry, simnet.Cost, error) {
	total := m.n.cfg.InterposeCost
	seen := make(map[string]localfs.FileType)
	// The union must cover *every* live node, not just the ones this node's
	// routing state happens to name: at large N, Known() is O(log N) of the
	// membership and the union would silently drop top-level directories
	// hosted on strangers. A clockwise ring walk enumerates the live
	// membership at one leaf-set RPC per l/2 positions; Known() is folded in
	// as a free extra so a mid-churn walk cut short by a stale leaf entry
	// still sees this node's own horizon.
	nodes, c := m.ringWalk()
	total = simnet.Seq(total, c)
	for _, addr := range nodes {
		var ents []nfs.DirEntry
		ok := false
		for attempt := 0; attempt < 2; attempt++ {
			rootH, c, err := m.n.rootHandle(addr)
			total = simnet.Seq(total, c)
			if err != nil {
				break
			}
			ents, c, err = m.n.nfsT(tr).ReaddirAll(addr, rootH, 256)
			total = simnet.Seq(total, c)
			if err != nil {
				// A cached handle for a node that crashed and rejoined is
				// stale; drop it and retry once so the revived node's store
				// still contributes to the union.
				if nfs.IsStatus(err, nfs.ErrStale) && attempt == 0 {
					m.n.dropRootHandle(addr)
					continue
				}
				break
			}
			ok = true
			break
		}
		if !ok {
			continue
		}
		for _, e := range ents {
			if Hidden(e.Name) {
				continue
			}
			if _, dup := seen[e.Name]; dup {
				continue
			}
			// Root entries are directories (real or via special link).
			seen[e.Name] = localfs.TypeDir
		}
	}
	// The union is advisory: a node that fell out of a key's replica set
	// can still hold a stale copy of a deleted directory, so each name is
	// validated against authoritative resolution before it is listed.
	out := make([]DirEntry, 0, len(seen))
	for name, typ := range seen {
		if _, _, c, err := m.materialize(tr, "/"+name); err != nil {
			total = simnet.Seq(total, c)
			continue
		} else {
			total = simnet.Seq(total, c)
		}
		out = append(out, DirEntry{Name: name, Type: typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, total, nil
}

// ringWalk returns the live node list the root listing unions over,
// memoized per mount. A fresh walk enumerates the ring clockwise and folds
// in Known(); the result is cached for Config.RingCacheTTL and reused for
// free (no RPCs, no cost) as long as the node's ring epoch is unchanged —
// any membership event bumps the epoch and forces a re-walk. Callers must
// not mutate the returned slice.
func (m *Mount) ringWalk() ([]simnet.Addr, simnet.Cost) {
	ttl := m.n.cfg.RingCacheTTL
	epoch := m.n.ringEpoch.Load()
	if ttl > 0 {
		m.ringMu.Lock()
		if m.ringNodes != nil && m.ringEpoch == epoch && m.now().Sub(m.ringAt) < ttl {
			nodes := m.ringNodes
			m.ringMu.Unlock()
			return nodes, 0
		}
		m.ringMu.Unlock()
	}
	nodes := []simnet.Addr{m.n.addr}
	dup := map[simnet.Addr]bool{m.n.addr: true}
	ring, c := m.n.overlay.EnumerateRing()
	for _, p := range ring {
		if !dup[p.Addr] {
			dup[p.Addr] = true
			nodes = append(nodes, p.Addr)
		}
	}
	for _, p := range m.n.overlay.Known() {
		if !dup[p.Addr] {
			dup[p.Addr] = true
			nodes = append(nodes, p.Addr)
		}
	}
	if ttl > 0 {
		m.ringMu.Lock()
		m.ringNodes = nodes
		m.ringEpoch = epoch
		m.ringAt = m.now()
		m.ringMu.Unlock()
	}
	return nodes, c
}

// Remove unlinks a file or user symlink (Section 4.1.5): the RPC is
// forwarded to the primary, which removes all replica instances.
func (m *Mount) Remove(dir VH, name string) (simnet.Cost, error) {
	o := m.beginAt(obs.OpcRemove, dir, name)
	cost, err := m.remove(o.tr, dir, name)
	o.done(cost, err)
	return cost, err
}

func (m *Mount) remove(tr *obs.Op, dir VH, name string) (simnet.Cost, error) {
	return m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		if de.place.VRoot {
			return 0, &nfs.Error{Proc: nfs.ProcRemove, Status: nfs.ErrIsDir}
		}
		phys := path.Join(de.physPath, name)
		_, attr, c, err := m.n.remoteLookupPath(tr.Ctx(), de.node, phys)
		if err != nil {
			return c, err
		}
		if attr.Type == localfs.TypeDir {
			return c, &nfs.Error{Proc: nfs.ProcRemove, Status: nfs.ErrIsDir}
		}
		if attr.Type == localfs.TypeSymlink {
			target, c2, err := m.n.readLink(tr.Ctx(), de.node, phys)
			c = simnet.Seq(c, c2)
			if err == nil {
				if _, _, ok := ParseLinkTarget(target); ok {
					return c, &nfs.Error{Proc: nfs.ProcRemove, Status: nfs.ErrIsDir}
				}
			}
		}
		_, _, c2, err := m.n.apply(tr, de.node, Key(de.pn), Track{PN: de.pn, Root: de.root},
			FSOp{Kind: FSRemove, Path: phys})
		if err == nil {
			m.dropMetaUnder(path.Join(de.vpath, name))
			m.invalAttr(de.vpath)
		}
		return simnet.Seq(c, c2), err
	})
}

// Rmdir removes an empty directory, pruning scaffolding and special links
// for distributed directories (Section 4.1.5).
func (m *Mount) Rmdir(dir VH, name string) (simnet.Cost, error) {
	o := m.beginAt(obs.OpcRmdir, dir, name)
	cost, err := m.rmdir(o.tr, dir, name)
	o.done(cost, err)
	return cost, err
}

func (m *Mount) rmdir(tr *obs.Op, dir VH, name string) (simnet.Cost, error) {
	return m.withFailover(tr, dir, func(de *ventry) (simnet.Cost, error) {
		if m.distributedAt(de) {
			return m.rmdirDistributed(tr, de, name)
		}
		phys := path.Join(de.physPath, name)
		_, _, c, err := m.n.apply(tr, de.node, Key(de.pn), Track{PN: de.pn, Root: de.root},
			FSOp{Kind: FSRmdir, Path: phys})
		if err == nil {
			m.dropMetaUnder(path.Join(de.vpath, name))
			m.invalAttr(de.vpath)
		}
		return c, err
	})
}

func (m *Mount) rmdirDistributed(tr *obs.Op, parent *ventry, name string) (simnet.Cost, error) {
	n := m.n
	var total simnet.Cost
	vpath := path.Join(parent.vpath, name)

	// Locate the child and verify virtual emptiness.
	child, _, c, err := m.materialize(tr, vpath)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	if child.kind != localfs.TypeDir {
		return total, &nfs.Error{Proc: nfs.ProcRmdir, Status: nfs.ErrNotDir}
	}
	ents, c, err := n.nfsc.ReaddirAll(child.node, child.fh, 256)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	for _, e := range ents {
		if !Hidden(e.Name) {
			return total, &nfs.Error{Proc: nfs.ProcRmdir, Status: nfs.ErrNotEmpty}
		}
	}

	// Remove the hierarchy on its node (and replicas), pruning empty
	// scaffolding above it.
	_, _, c, err = n.apply(tr, child.node, Key(child.pn), Track{PN: child.pn, Root: child.root},
		FSOp{Kind: FSRemoveAll, Path: child.root, Prune: true})
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}

	// Remove the special link from the parent, if one exists.
	var linkNode simnet.Addr
	var linkDir string
	linkKey := Key(name)
	var linkTrack Track
	if parent.place.VRoot {
		res, c, rerr := n.route(tr, Key(name))
		total = simnet.Seq(total, c)
		if rerr != nil {
			return total, rerr
		}
		linkNode, linkDir = res.Node.Addr, "/"
		linkTrack = Track{PN: name, Link: path.Join("/", name)}
	} else {
		linkNode, linkDir = parent.node, parent.physPath
		linkKey = Key(parent.pn)
		linkTrack = Track{PN: parent.pn, Root: parent.root}
	}
	if !(parent.place.VRoot && child.root == "/"+name) {
		linkPath := path.Join(linkDir, name)
		if _, attr, c, lerr := n.remoteLookupPath(tr.Ctx(), linkNode, linkPath); lerr == nil && attr.Type == localfs.TypeSymlink {
			total = simnet.Seq(total, c)
			_, _, c2, derr := n.apply(tr, linkNode, linkKey, linkTrack, FSOp{Kind: FSRemove, Path: linkPath})
			total = simnet.Seq(total, c2)
			if derr != nil {
				return total, derr
			}
		} else {
			total = simnet.Seq(total, c)
		}
	}
	n.cacheDrop(vpath)
	m.dropMetaUnder(vpath)
	m.invalAttr(parent.vpath)
	return total, nil
}

// Rename renames an entry (Section 4.1.4). Renames within one stored
// hierarchy are a single forwarded NFS rename (mirrored to replicas).
// Renaming a distributed directory, or across hierarchies, is "equivalent
// to a copy to a new location followed by a delete of the old location".
func (m *Mount) Rename(srcDir VH, srcName string, dstDir VH, dstName string) (simnet.Cost, error) {
	o := m.beginAt(obs.OpcRename, srcDir, srcName)
	cost, err := m.rename(o.tr, srcDir, srcName, dstDir, dstName)
	o.done(cost, err)
	return cost, err
}

func (m *Mount) rename(tr *obs.Op, srcDir VH, srcName string, dstDir VH, dstName string) (simnet.Cost, error) {
	total := m.n.cfg.InterposeCost
	if err := ValidName(dstName); err != nil {
		return total, err
	}
	sde, err := m.entry(srcDir)
	if err != nil {
		return total, err
	}
	dde, err := m.entry(dstDir)
	if err != nil {
		return total, err
	}
	srcDepth := virtualDepth(sde.vpath) + 1
	srcDistributed := srcDepth <= m.n.cfg.DistributionLevel

	if !srcDistributed && sde.node == dde.node && sde.root == dde.root {
		c, err := m.withFailover(tr, srcDir, func(de *ventry) (simnet.Cost, error) {
			_, _, c, err := m.n.apply(tr, de.node, Key(de.pn), Track{PN: de.pn, Root: de.root},
				FSOp{
					Kind:  FSRename,
					Path:  path.Join(sde.physPath, srcName),
					Path2: path.Join(dde.physPath, dstName),
				})
			return c, err
		})
		m.dropCachesUnder(path.Join(sde.vpath, srcName))
		m.dropCachesUnder(path.Join(dde.vpath, dstName))
		m.invalAttr(sde.vpath)
		m.invalAttr(dde.vpath)
		return simnet.Seq(total, c), err
	}

	// Cheap rename of a distributed directory within the same parent
	// (Section 4.1.4): "the rename is achieved by renaming the link ...
	// The target of the link needs not be changed" — the subtree stays
	// where its placement name hashes; only the name users see moves.
	if srcDistributed && sde.vpath == dde.vpath {
		c, ok, err := m.renameDistributedLink(tr, sde, srcName, dstName)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		if ok {
			m.dropCachesUnder(path.Join(sde.vpath, srcName))
			m.dropCachesUnder(path.Join(sde.vpath, dstName))
			return total, nil
		}
	}

	// Copy-then-delete across hierarchies or for unredirected level-1
	// directories, whose placement is their visible name ("renaming of
	// distributed subdirectories ... is equivalent to a copy ... followed
	// by a delete").
	c, err := m.copyTree(srcDir, srcName, dstDir, dstName)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	srcVH, _, c, err := m.Lookup(srcDir, srcName)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	sattr, c, err := m.Getattr(srcVH)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	if sattr.Type == localfs.TypeDir {
		c, err = m.RemoveAllPath(path.Join(sde.vpath, srcName))
	} else {
		c, err = m.Remove(srcDir, srcName)
	}
	total = simnet.Seq(total, c)
	m.forget(srcVH)
	return total, err
}

// renameDistributedLink renames a distributed directory cheaply (Section
// 4.1.4): its storage relocates LOCALLY on its node to a fresh root (the
// placement name — and hence the node — is unchanged, so no data crosses
// the network) and the special link is rewritten under the new name.
// ok=false means the cheap path does not apply (an unredirected level-1
// home, whose placement IS its name) and the caller must copy-and-delete.
func (m *Mount) renameDistributedLink(tr *obs.Op, parent *ventry, srcName, dstName string) (simnet.Cost, bool, error) {
	n := m.n
	var total simnet.Cost
	child, _, c, err := m.materialize(tr, path.Join(parent.vpath, srcName))
	total = simnet.Seq(total, c)
	if err != nil {
		return total, false, err
	}
	if child.kind != localfs.TypeDir {
		return total, false, nil
	}
	// Destination must not exist.
	if _, _, c, err := m.materialize(tr, path.Join(parent.vpath, dstName)); err == nil {
		return simnet.Seq(total, c), false, &nfs.Error{Proc: nfs.ProcRename, Status: nfs.ErrExist}
	} else {
		total = simnet.Seq(total, c)
		if !nfs.IsStatus(err, nfs.ErrNoEnt) && !nfs.IsStatus(err, nfs.ErrNotDir) {
			return total, false, err
		}
	}

	if parent.place.VRoot && child.root == "/"+srcName {
		// Unredirected level-1 home: no link exists; placement is the
		// visible name, so a rename must move the data (copy + delete).
		return total, false, nil
	}

	// 1. Relocate the hierarchy to a fresh storage root on its own node —
	// a local rename, no data crosses the network. Stale resolver caches
	// for the old virtual name now dangle instead of aliasing the
	// renamed directory.
	newRoot := n.newStoreRoot(child.pn)
	_, _, c, err = n.apply(tr, child.node, Key(child.pn),
		Track{PN: child.pn, Root: newRoot},
		FSOp{Kind: FSRename, Path: child.root, Path2: newRoot})
	total = simnet.Seq(total, c)
	if err != nil {
		return total, false, err
	}
	target := MakeLinkTarget(child.pn, newRoot)

	// 2. Replace the link: remove the old name, create the new one.
	if !parent.place.VRoot {
		pt := Track{PN: parent.pn, Root: parent.root}
		if _, _, c, err := n.apply(tr, parent.node, Key(parent.pn), pt,
			FSOp{Kind: FSRemove, Path: path.Join(parent.physPath, srcName)}); err != nil {
			return simnet.Seq(total, c), false, err
		} else {
			total = simnet.Seq(total, c)
		}
		_, _, c, err := n.apply(tr, parent.node, Key(parent.pn), pt,
			FSOp{Kind: FSSymlink, Path: path.Join(parent.physPath, dstName), Target: target})
		total = simnet.Seq(total, c)
		return total, err == nil, err
	}

	// Level 1: the link moves between the old and new names' hash targets.
	newRes, c, err := n.route(tr, Key(dstName))
	total = simnet.Seq(total, c)
	if err != nil {
		return total, false, err
	}
	_, _, c, err = n.apply(tr, newRes.Node.Addr, Key(dstName),
		Track{PN: dstName, Link: path.Join("/", dstName)},
		FSOp{Kind: FSSymlink, Path: path.Join("/", dstName), Target: target})
	total = simnet.Seq(total, c)
	if err != nil {
		return total, false, err
	}
	oldRes, c, err := n.route(tr, Key(srcName))
	total = simnet.Seq(total, c)
	if err != nil {
		return total, false, err
	}
	_, _, c, err = n.apply(tr, oldRes.Node.Addr, Key(srcName),
		Track{PN: srcName, Link: path.Join("/", srcName)},
		FSOp{Kind: FSRemove, Path: path.Join("/", srcName)})
	total = simnet.Seq(total, c)
	return total, err == nil, err
}

// copyTree recursively copies srcDir/srcName to dstDir/dstName via client
// operations.
func (m *Mount) copyTree(srcDir VH, srcName string, dstDir VH, dstName string) (simnet.Cost, error) {
	var total simnet.Cost
	srcVH, sattr, c, err := m.Lookup(srcDir, srcName)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	defer m.forget(srcVH)
	switch sattr.Type {
	case localfs.TypeRegular:
		dstVH, _, c, err := m.Create(dstDir, dstName, sattr.Mode, false)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		defer m.forget(dstVH)
		const chunk = 1 << 20
		for off := int64(0); ; {
			data, eof, c, err := m.Read(srcVH, off, chunk)
			total = simnet.Seq(total, c)
			if err != nil {
				return total, err
			}
			if len(data) > 0 {
				_, c, err = m.Write(dstVH, off, data)
				total = simnet.Seq(total, c)
				if err != nil {
					return total, err
				}
				off += int64(len(data))
			}
			if eof {
				return total, nil
			}
		}
	case localfs.TypeSymlink:
		target, c, err := m.Readlink(srcVH)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		vh, c, err := m.Symlink(dstDir, dstName, target)
		total = simnet.Seq(total, c)
		m.forget(vh)
		return total, err
	case localfs.TypeDir:
		dstVH, _, c, err := m.Mkdir(dstDir, dstName, sattr.Mode)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		defer m.forget(dstVH)
		ents, c, err := m.Readdir(srcVH)
		total = simnet.Seq(total, c)
		if err != nil {
			return total, err
		}
		for _, e := range ents {
			c, err := m.copyTree(srcVH, e.Name, dstVH, e.Name)
			total = simnet.Seq(total, c)
			if err != nil {
				return total, err
			}
		}
		return total, nil
	default:
		return total, &nfs.Error{Proc: nfs.ProcRename, Status: nfs.ErrInval}
	}
}
