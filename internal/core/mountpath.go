package core

import (
	"path"

	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Path-level conveniences for applications and experiments, built on the
// handle-level operations, plus the cluster-wide statfs view.

// LookupPath resolves a whole virtual path to a handle.
func (m *Mount) LookupPath(vpath string) (VH, localfs.Attr, simnet.Cost, error) {
	o := m.begin(obs.OpcLookup, vpath)
	total := m.n.cfg.InterposeCost
	de, attr, cost, err := m.materializeRetry(o.tr, vpath)
	total = simnet.Seq(total, cost)
	if err != nil {
		o.done(total, err)
		return 0, localfs.Attr{}, total, err
	}
	o.done(total, nil)
	if de.place.VRoot {
		return RootVH, attr, total, nil
	}
	return m.insert(de), attr, total, nil
}

// dropMetaForPath invalidates this mount's metadata caches for a path's
// whole top-level subtree plus resolver entries along the path — the
// recovery hammer the path helpers swing before redriving after a failure
// that implicates cached state.
func (m *Mount) dropMetaForPath(vpath string) {
	m.dropCachesUnder(vpath)
	if parts := SplitVirtual(vpath); len(parts) > 0 {
		m.dropMetaUnder(JoinVirtual(parts[:1]))
	}
}

// MkdirAll creates a directory path and any missing ancestors. A NOENT on
// the way can mean a name-cache entry went stale mid-walk (another client
// removed or renamed a component); the walk redrives once with fresh
// resolutions before giving up.
func (m *Mount) MkdirAll(vpath string) (VH, simnet.Cost, error) {
	vh, total, err := m.mkdirAllOnce(vpath)
	if err != nil && cacheSuspect(err) {
		m.dropMetaForPath(vpath)
		vh2, c, err2 := m.mkdirAllOnce(vpath)
		return vh2, simnet.Seq(total, c), err2
	}
	return vh, total, err
}

func (m *Mount) mkdirAllOnce(vpath string) (VH, simnet.Cost, error) {
	parts := SplitVirtual(vpath)
	var total simnet.Cost
	cur := m.Root()
	for i, name := range parts {
		next, _, c, err := m.Lookup(cur, name)
		total = simnet.Seq(total, c)
		if err != nil {
			if !nfs.IsStatus(err, nfs.ErrNoEnt) {
				return 0, total, err
			}
			next, _, c, err = m.Mkdir(cur, name, 0o755)
			total = simnet.Seq(total, c)
			if nfs.IsStatus(err, nfs.ErrExist) {
				// Another writer created it between our lookup and
				// mkdir: already there is what mkdir -p wants.
				next, _, c, err = m.Lookup(cur, name)
				total = simnet.Seq(total, c)
			}
			if err != nil {
				return 0, total, err
			}
		}
		if i > 0 && cur != m.Root() {
			m.forget(cur)
		}
		cur = next
	}
	return cur, total, nil
}

// WriteFile creates (or truncates) a file at a virtual path and writes
// data. Like MkdirAll, it redrives once on a staleness-shaped failure.
func (m *Mount) WriteFile(vpath string, data []byte) (simnet.Cost, error) {
	total, err := m.writeFileOnce(vpath, data)
	if err != nil && cacheSuspect(err) {
		m.dropMetaForPath(vpath)
		c, err2 := m.writeFileOnce(vpath, data)
		return simnet.Seq(total, c), err2
	}
	return total, err
}

func (m *Mount) writeFileOnce(vpath string, data []byte) (simnet.Cost, error) {
	dir, base := path.Split(path.Clean("/" + vpath))
	dirVH, total, err := m.MkdirAll(dir)
	if err != nil {
		return total, err
	}
	fvh, _, c, err := m.Create(dirVH, base, 0o644, false)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	defer m.forget(fvh)
	_, c, err = m.Write(fvh, 0, data)
	total = simnet.Seq(total, c)
	if err != nil {
		return total, err
	}
	// Under write-back the Write above may only have buffered. WriteFile's
	// contract is an acknowledged durable write, so flush before the handle
	// is dropped: forget's flush is best-effort and would swallow the error,
	// acknowledging data that was never placed.
	c, err = m.flushVH(nil, fvh)
	return simnet.Seq(total, c), err
}

// ReadFile reads a whole file at a virtual path. It reads to EOF rather
// than trusting the looked-up size, so a concurrent append through another
// node can never truncate the result.
func (m *Mount) ReadFile(vpath string) ([]byte, simnet.Cost, error) {
	vh, _, total, err := m.LookupPath(vpath)
	if err != nil {
		return nil, total, err
	}
	defer m.forget(vh)
	var data []byte
	const chunk = 1 << 20
	for {
		d, eof, c, err := m.Read(vh, int64(len(data)), chunk)
		total = simnet.Seq(total, c)
		if err != nil {
			return nil, total, err
		}
		data = append(data, d...)
		if eof || len(d) == 0 {
			return data, total, nil
		}
	}
}

// RemoveAllPath recursively removes a virtual subtree.
func (m *Mount) RemoveAllPath(vpath string) (simnet.Cost, error) {
	parts := SplitVirtual(vpath)
	if len(parts) == 0 {
		return 0, &nfs.Error{Proc: nfs.ProcRmdir, Status: nfs.ErrInval}
	}
	parentVH, _, total, err := m.LookupPath(JoinVirtual(parts[:len(parts)-1]))
	if err != nil {
		return total, err
	}
	defer m.forget(parentVH)
	c, err := m.removeAllIn(parentVH, parts[len(parts)-1])
	return simnet.Seq(total, c), err
}

// removeAllIn removes dir/name recursively. NOENT at any step means
// another client (or a stale cache entry standing in for one) already
// removed that piece — the goal state, so it counts as success.
func (m *Mount) removeAllIn(dir VH, name string) (simnet.Cost, error) {
	vh, attr, total, err := m.Lookup(dir, name)
	if err != nil {
		if nfs.IsStatus(err, nfs.ErrNoEnt) {
			return total, nil
		}
		return total, err
	}
	if attr.Type != localfs.TypeDir {
		m.forget(vh)
		c, err := m.Remove(dir, name)
		if nfs.IsStatus(err, nfs.ErrNoEnt) {
			err = nil
		}
		return simnet.Seq(total, c), err
	}
	ents, c, err := m.Readdir(vh)
	total = simnet.Seq(total, c)
	if err != nil {
		m.forget(vh)
		if nfs.IsStatus(err, nfs.ErrNoEnt) {
			return total, nil
		}
		return total, err
	}
	for _, e := range ents {
		c, err := m.removeAllIn(vh, e.Name)
		total = simnet.Seq(total, c)
		if err != nil {
			m.forget(vh)
			return total, err
		}
	}
	m.forget(vh)
	c, err = m.Rmdir(dir, name)
	if nfs.IsStatus(err, nfs.ErrNoEnt) {
		err = nil
	}
	return simnet.Seq(total, c), err
}

// ClusterStat aggregates contributed-space accounting across every node
// this mount's koshad knows about — the "single large storage" view the
// paper's introduction promises (unused desktop space harvested into one
// shared file system).
type ClusterStat struct {
	Nodes      int
	TotalBytes int64 // sum of contributed capacities (0 entries = unlimited)
	UsedBytes  int64
	Files      int64 // file copies stored, replicas included
	Unlimited  int   // nodes contributing without a cap
}

// Statfs sums FSSTAT over the local node and every known peer.
func (m *Mount) Statfs() (ClusterStat, simnet.Cost, error) {
	total := m.n.cfg.InterposeCost
	var out ClusterStat
	nodes := []simnet.Addr{m.n.addr}
	for _, p := range m.n.overlay.Known() {
		nodes = append(nodes, p.Addr)
	}
	for _, addr := range nodes {
		st, c, err := m.n.remoteFSStat(addr)
		total = simnet.Seq(total, c)
		if err != nil {
			continue
		}
		out.Nodes++
		out.UsedBytes += st.UsedBytes
		out.Files += st.Files
		if st.TotalBytes == 0 {
			out.Unlimited++
		} else {
			out.TotalBytes += st.TotalBytes
		}
	}
	return out, total, nil
}
