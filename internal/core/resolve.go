package core

import (
	"errors"
	"fmt"
	"path"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrRootOnlyDirs is returned for operations that would create non-directory
// entries directly under the virtual root; Kosha's root holds only
// distributed directories (the paper's /kosha/$USER layout, Section 3).
var ErrRootOnlyDirs = errors.New("kosha: the virtual root may only contain directories")

// noteErr reacts to a failed RPC against addr: unreachable or stale-handle
// errors invalidate every cache naming that node so re-resolution routes
// around it (the detection half of Section 4.4's transparent fault
// handling). The error is returned unchanged.
func (n *Node) noteErr(addr simnet.Addr, err error) error {
	if err != nil && (errors.Is(err, simnet.ErrUnreachable) || nfs.IsStatus(err, nfs.ErrStale)) {
		n.invalidateNode(addr)
	}
	return err
}

// remoteLookupPath resolves a physical path on a remote store, fetching and
// caching the export's root handle. A stale cached handle (the remote store
// was purged and re-incarnated) is refreshed once.
func (n *Node) remoteLookupPath(tc obs.TraceContext, to simnet.Addr, phys string) (nfs.Handle, localfs.Attr, simnet.Cost, error) {
	fh, attr, _, cost, err := n.remoteLookupPathIdx(tc, to, phys)
	return fh, attr, cost, err
}

// remoteLookupPathIdx additionally reports how many components resolved.
func (n *Node) remoteLookupPathIdx(tc obs.TraceContext, to simnet.Addr, phys string) (nfs.Handle, localfs.Attr, int, simnet.Cost, error) {
	var total simnet.Cost
	for attempt := 0; ; attempt++ {
		root, c, err := n.rootHandle(to)
		total = simnet.Seq(total, c)
		if err != nil {
			return nfs.Handle{}, localfs.Attr{}, 0, total, n.noteErr(to, err)
		}
		fh, attr, idx, c, err := n.nfsCtx(tc).LookupPathIdx(to, root, phys)
		total = simnet.Seq(total, c)
		if err != nil && nfs.IsStatus(err, nfs.ErrStale) && attempt == 0 {
			n.dropRootHandle(to)
			continue
		}
		if err != nil && !nfs.IsStatus(err, nfs.ErrStale) {
			err = n.noteErr(to, err)
		}
		return fh, attr, idx, total, err
	}
}

// pathComponents counts the components of a physical path.
func pathComponents(p string) int {
	n := 0
	for i := 0; i < len(p); i++ {
		if p[i] != '/' && (i == 0 || p[i-1] == '/') {
			n++
		}
	}
	return n
}

// readLink reads a symlink target on a remote store by physical path.
func (n *Node) readLink(tc obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error) {
	fh, attr, cost, err := n.remoteLookupPath(tc, to, phys)
	if err != nil {
		return "", cost, err
	}
	if attr.Type != localfs.TypeSymlink {
		return "", cost, &nfs.Error{Proc: nfs.ProcReadlink, Status: nfs.ErrInval}
	}
	target, c, err := n.nfsCtx(tc).Readlink(to, fh)
	return target, simnet.Seq(cost, c), err
}

func (n *Node) cacheGet(vpath string) (Place, bool) {
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	p, ok := n.dirCache[vpath]
	return p, ok
}

func (n *Node) cachePut(vpath string, p Place) {
	n.cacheMu.Lock()
	n.dirCache[vpath] = p
	n.cacheMu.Unlock()
}

func (n *Node) cacheDrop(vpath string) {
	n.cacheMu.Lock()
	delete(n.dirCache, vpath)
	n.cacheMu.Unlock()
}

// ResolveDir locates the virtual directory whose components are vdirs,
// following the mapping of Section 3.1 with special-link redirection
// (Section 3.3): hash the controlling directory's placement name, route to
// the numerically closest node, and follow any special link found in the
// parent directory. Resolved levels are cached, mirroring koshad's practice
// of "record[ing] the information needed for future accesses" (Section 4).
func (n *Node) ResolveDir(vdirs []string) (Place, simnet.Cost, error) {
	return n.resolveDir(nil, vdirs)
}

// resolveDir is ResolveDir with an optional traced op receiving the route
// hops.
func (n *Node) resolveDir(tr *obs.Op, vdirs []string) (Place, simnet.Cost, error) {
	if len(vdirs) == 0 {
		return Place{VRoot: true, Store: "/"}, 0, nil
	}
	d := ControllingDepth(len(vdirs), n.cfg.DistributionLevel)
	cur := Place{VRoot: true, Store: "/"}
	var total simnet.Cost
	usedCache := false
	retried := false
restart:
	for i := 1; i <= d; i++ {
		vpath := JoinVirtual(vdirs[:i])
		if pl, ok := n.cacheGet(vpath); ok {
			cur = pl
			usedCache = true
			continue
		}
		name := vdirs[i-1]
		var probeNode simnet.Addr
		var probeDir string
		if i == 1 {
			res, c, err := n.route(tr, Key(name))
			total = simnet.Seq(total, c)
			if err != nil {
				return Place{}, total, fmt.Errorf("kosha: resolve %s: %w", vpath, err)
			}
			probeNode, probeDir = res.Node.Addr, "/"
		} else {
			probeNode, probeDir = cur.Node, cur.PhysDir()
		}
		probePath := path.Join(probeDir, name)
		wantIdx := pathComponents(probePath) - 1 // components before the name
		_, attr, idx, cost, err := n.remoteLookupPathIdx(tr.Ctx(), probeNode, probePath)
		total = simnet.Seq(total, cost)
		if nfs.IsStatus(err, nfs.ErrNoEnt) && idx >= wantIdx {
			// Only the name itself is missing; the node may hold an
			// unpromoted copy after a fresh ownership change.
			var t Track
			if i == 1 {
				t = Track{PN: name, Root: path.Join("/", name), Link: path.Join("/", name)}
			} else {
				t = Track{PN: cur.PN(), Root: cur.SubtreeRoot()}
			}
			_, c2, perr := n.promote(tr.Ctx(), probeNode, t)
			total = simnet.Seq(total, c2)
			if perr == nil {
				_, attr, idx, cost, err = n.remoteLookupPathIdx(tr.Ctx(), probeNode, probePath)
				total = simnet.Seq(total, cost)
			}
		}
		if nfs.IsStatus(err, nfs.ErrNoEnt) && idx < wantIdx && usedCache && !retried {
			// The cached level's storage root dangles: the directory was
			// renamed or removed elsewhere (renames relocate storage by
			// design). Re-resolve the whole chain from scratch once.
			retried = true
			usedCache = false
			for j := 1; j <= d; j++ {
				n.cacheDrop(JoinVirtual(vdirs[:j]))
			}
			cur = Place{VRoot: true, Store: "/"}
			goto restart
		}
		if err != nil {
			return Place{}, total, err
		}
		var next Place
		switch attr.Type {
		case localfs.TypeDir:
			// A real directory at the probe location only occurs for an
			// unsalted level-1 home sitting at its own hash target; deeper
			// distributed children are always behind special links.
			if i != 1 {
				return Place{}, total, &nfs.Error{Proc: nfs.ProcLookup, Status: nfs.ErrNotDir}
			}
			next = Place{Node: probeNode, Name: name, Store: "/" + name}
		case localfs.TypeSymlink:
			// Special link: follow to the placement name and storage root.
			// A user symlink (no marker) is not a directory.
			target, cost, err := n.readLink(tr.Ctx(), probeNode, path.Join(probeDir, name))
			total = simnet.Seq(total, cost)
			if err != nil {
				return Place{}, total, err
			}
			pn, store, ok := ParseLinkTarget(target)
			if !ok {
				return Place{}, total, &nfs.Error{Proc: nfs.ProcLookup, Status: nfs.ErrNotDir}
			}
			res, c, err := n.route(tr, Key(pn))
			total = simnet.Seq(total, c)
			if err != nil {
				return Place{}, total, err
			}
			next = Place{Node: res.Node.Addr, Name: pn, Store: store}
		default:
			return Place{}, total, &nfs.Error{Proc: nfs.ProcLookup, Status: nfs.ErrNotDir}
		}
		n.cachePut(vpath, next)
		cur = next
	}
	cur.Rest = append([]string(nil), vdirs[d:]...)
	return cur, total, nil
}

// ResolvePath is ResolveDir on a slash-separated virtual path.
func (n *Node) ResolvePath(vpath string) (Place, simnet.Cost, error) {
	return n.ResolveDir(SplitVirtual(vpath))
}
