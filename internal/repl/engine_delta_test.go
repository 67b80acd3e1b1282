package repl

import (
	"bytes"
	"path"
	"testing"

	"repro/internal/cas"
	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/merkle"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// storePeer is a Peer backed by a real remote store: Mirror applies ops the
// way a replica node would (replica-area translation, lenient semantics),
// and the digest/read procedures answer from the store. It makes the delta
// protocol testable end to end without a network.
type storePeer struct {
	remote  localfs.FileSystem
	mk      *merkle.Cache
	blocks  *cas.Store // the remote's content-addressed block index
	mirrors []mirrorRec
	vers    map[string]uint64    // primary-relative root -> recorded Ver
	fetches map[simnet.Addr]int  // CHUNK_FETCH round trips per holder address
	down    map[simnet.Addr]bool // addresses whose block procedures fail
}

var errPeerDown = &nfs.Error{Proc: nfs.Proc(200), Status: nfs.ErrIO}

func newStorePeer() *storePeer {
	remote := localfs.New(0, simnet.DiskModel{})
	blocks := cas.NewStore(remote, nil)
	return &storePeer{
		remote:  remote,
		mk:      merkle.NewCacheWithStore(remote, blocks),
		blocks:  blocks,
		vers:    map[string]uint64{},
		fetches: map[simnet.Addr]int{},
		down:    map[simnet.Addr]bool{},
	}
}

func (s *storePeer) Mirror(_ obs.TraceContext, to simnet.Addr, t Track, op FSOp, primary bool) (simnet.Cost, error) {
	s.mirrors = append(s.mirrors, mirrorRec{to: to, op: op, primary: primary})
	if !primary {
		op.Path = RepPath(op.Path)
		if op.Path2 != "" {
			op.Path2 = RepPath(op.Path2)
		}
	}
	if op.Kind == FSChunkWrite {
		// Assemble like a replica node would: inline bytes from the op,
		// references from the remote's own block index.
		data, err := s.assemble(op)
		if err != nil {
			return 0, err
		}
		op = FSOp{Kind: FSWrite, Path: op.Path, Offset: op.Offset, Data: data}
	}
	if err := applyLenient(s.remote, op); err != nil {
		return 0, err
	}
	s.vers[t.Root] = t.Ver
	return 0, nil
}

// assemble resolves an FSChunkWrite span the way core's replica apply does.
func (s *storePeer) assemble(op FSOp) ([]byte, error) {
	var buf []byte
	data := op.Data
	local := map[cas.Hash][]byte{}
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
		b, ok := s.blocks.Get(cr.Hash)
		if !ok || len(b) != int(cr.Len) {
			return nil, ErrMissingChunk
		}
		buf = append(buf, b...)
		local[cr.Hash] = b
	}
	return buf, nil
}

// applyLenient executes the op kinds the push protocol emits, with the
// tolerant semantics core's replica apply uses.
func applyLenient(fs localfs.FileSystem, op FSOp) error {
	parent := func(p string) (localfs.Attr, error) {
		if _, err := fs.MkdirAll(path.Dir(p)); err != nil {
			return localfs.Attr{}, err
		}
		return fs.LookupPath(path.Dir(p))
	}
	switch op.Kind {
	case FSMkdirAll:
		_, err := fs.MkdirAll(op.Path)
		return err
	case FSWriteFile:
		return fs.WriteFile(op.Path, op.Data)
	case FSCreate:
		dir, err := parent(op.Path)
		if err != nil {
			return err
		}
		_, _, err = fs.Create(dir.Ino, path.Base(op.Path), op.Mode, false)
		return err
	case FSWrite:
		a, err := fs.LookupPath(op.Path)
		if err != nil {
			return err
		}
		_, _, err = fs.Write(a.Ino, op.Offset, op.Data)
		return err
	case FSRemove:
		dir, err := fs.LookupPath(path.Dir(op.Path))
		if err != nil {
			return nil
		}
		fs.Remove(dir.Ino, path.Base(op.Path))
		return nil
	case FSRemoveAll:
		return fs.RemoveAll(op.Path)
	case FSSetattr:
		a, err := fs.LookupPath(op.Path)
		if err != nil {
			return err
		}
		_, _, err = fs.Setattr(a.Ino, op.SetAttr)
		return err
	case FSSymlink:
		dir, err := parent(op.Path)
		if err != nil {
			return err
		}
		fs.RemoveAll(op.Path)
		_, _, err = fs.Symlink(dir.Ino, path.Base(op.Path), op.Target)
		return err
	}
	return nil
}

func (s *storePeer) StatTree(_ obs.TraceContext, to simnet.Addr, root string) (TreeStat, simnet.Cost, error) {
	return TreeStat{}, 0, nil
}

func (s *storePeer) Promote(obs.TraceContext, simnet.Addr, Track) (bool, simnet.Cost, error) {
	return false, 0, nil
}

func (s *storePeer) DigestTree(_ obs.TraceContext, to simnet.Addr, root string) (TreeDigest, simnet.Cost, error) {
	var td TreeDigest
	td.Ver = s.vers[PrimaryRoot(root)]
	if _, err := s.remote.LookupPath(root); err != nil {
		return td, 0, nil
	}
	td.Exists = true
	if _, err := s.remote.LookupPath(path.Join(root, MigrationFlag)); err == nil {
		td.Flag = true
	}
	if d, err := s.mk.DigestOf(root); err == nil {
		td.Root = d
	}
	return td, 0, nil
}

func (s *storePeer) DirDigests(_ obs.TraceContext, to simnet.Addr, dir string) ([]merkle.Entry, bool, simnet.Cost, error) {
	ents, ok, err := s.mk.Entries(dir)
	return ents, ok, 0, err
}

func (s *storePeer) LookupPath(_ obs.TraceContext, to simnet.Addr, phys string) (nfs.Handle, localfs.Attr, simnet.Cost, error) {
	attr, err := s.remote.LookupPath(phys)
	if err != nil {
		return nfs.Handle{}, localfs.Attr{}, 0, err
	}
	return nfs.Handle{Ino: attr.Ino}, attr, 0, nil
}

func (s *storePeer) ReadStream(_ obs.TraceContext, to simnet.Addr, fh nfs.Handle, off int64, chunk, chunks int) ([]byte, bool, simnet.Cost, error) {
	var data []byte
	for i := 0; i < chunks; i++ {
		piece, eof, _, err := s.remote.Read(fh.Ino, off, chunk)
		if err != nil {
			return nil, false, 0, err
		}
		data = append(data, piece...)
		off += int64(len(piece))
		if eof || len(piece) < chunk {
			return data, eof, 0, nil
		}
	}
	return data, false, 0, nil
}

func (s *storePeer) ReadLink(_ obs.TraceContext, to simnet.Addr, phys string) (string, simnet.Cost, error) {
	attr, err := s.remote.LookupPath(phys)
	if err != nil {
		return "", 0, err
	}
	t, _, err := s.remote.Readlink(attr.Ino)
	return t, 0, err
}

func (s *storePeer) ChunkManifest(_ obs.TraceContext, to simnet.Addr, phys string, want []cas.Hash) (cas.Manifest, bool, []bool, simnet.Cost, error) {
	if s.down[to] {
		return nil, false, nil, 0, errPeerDown
	}
	var man cas.Manifest
	exists := false
	if attr, err := s.remote.LookupPath(phys); err == nil && attr.Type == localfs.TypeRegular {
		if m, err := s.mk.ManifestOf(phys); err == nil {
			man, exists = m, true
		}
	}
	return man, exists, s.blocks.HasAll(want), 0, nil
}

func (s *storePeer) ChunkFetch(_ obs.TraceContext, to simnet.Addr, phys string, hashes []cas.Hash) ([][]byte, simnet.Cost, error) {
	if s.down[to] {
		return nil, 0, errPeerDown
	}
	s.fetches[to]++
	if phys != "" {
		if attr, err := s.remote.LookupPath(phys); err == nil && attr.Type == localfs.TypeRegular {
			s.mk.ManifestOf(phys)
		}
	}
	blocks := make([][]byte, len(hashes))
	for i, h := range hashes {
		if b, ok := s.blocks.Get(h); ok {
			blocks[i] = b
		}
	}
	return blocks, 0, nil
}

func deltaEngine(t *testing.T, peer Peer) (*Engine, localfs.FileSystem, *obs.Registry) {
	t.Helper()
	store := localfs.New(0, simnet.DiskModel{})
	reg := obs.NewRegistry()
	rep := pastry.NodeInfo{ID: id.HashKey("r1"), Addr: "r1"}
	e := New(Options{
		Self:     "self",
		Store:    store,
		Overlay:  &fakeOverlay{isRoot: true, reps: []pastry.NodeInfo{rep}},
		Peer:     peer,
		Replicas: 1,
		Key:      func(pn string) id.ID { return id.HashKey(pn) },
		Events:   obs.NewEventLog(16),
		Registry: reg,
	})
	return e, store, reg
}

// Regression (satellite fix): fetchTree used to skip ANY file named like the
// migration flag, silently dropping legitimately-named user files deeper in
// the tree. Only the root-level sentinel is protocol state.
func TestFetchTreeKeepsNestedFlagNamedFile(t *testing.T) {
	peer := newStorePeer()
	src := RepPath("/docs")
	if err := peer.remote.WriteFile(src+"/"+MigrationFlag, nil); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(src+"/a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(src+"/nest/"+MigrationFlag, []byte("user data")); err != nil {
		t.Fatal(err)
	}
	e, store, _ := deltaEngine(t, peer)

	if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, Track{PN: "docs", Root: "/docs"}, 5); err != nil {
		t.Fatal(err)
	}
	if data, err := store.ReadFile("/docs/a.txt"); err != nil || string(data) != "a" {
		t.Fatalf("/docs/a.txt: %q err=%v", data, err)
	}
	if data, err := store.ReadFile("/docs/nest/" + MigrationFlag); err != nil || string(data) != "user data" {
		t.Fatalf("nested flag-named user file was dropped: %q err=%v", data, err)
	}
	if _, err := store.LookupPath("/docs/" + MigrationFlag); err == nil {
		t.Fatal("root-level migration sentinel was fetched as content")
	}
	if v := e.VerOf("/docs"); v != 5 {
		t.Fatalf("adopted version %d, want 5", v)
	}
}

// Satellite fix: whole-file pushes ship file contents in bounded chunks
// rather than one whole-file op. (sendFileWhole is the fallback when block
// negotiation fails.)
func TestSendFileChunksLargePayload(t *testing.T) {
	e, store, _ := deltaEngine(t, newStorePeer())
	payload := bytes.Repeat([]byte("x"), PushChunk*2+PushChunk/2)
	if err := store.WriteFile("/big/blob", payload); err != nil {
		t.Fatal(err)
	}
	var ops []FSOp
	step := func(op FSOp) error { ops = append(ops, op); return nil }
	if err := e.sendFileWhole("/big/blob", "/big/blob", step); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 4 || ops[0].Kind != FSCreate {
		t.Fatalf("got %d ops (first %v), want FSCreate + 3 chunked FSWrites", len(ops), ops[0].Kind)
	}
	var rebuilt []byte
	for i, op := range ops[1:] {
		if op.Kind != FSWrite {
			t.Fatalf("op %d kind %v, want FSWrite", i+1, op.Kind)
		}
		if op.Offset != int64(len(rebuilt)) {
			t.Fatalf("op %d offset %d, want %d", i+1, op.Offset, len(rebuilt))
		}
		if len(op.Data) > PushChunk {
			t.Fatalf("chunk %d bytes exceeds the %d limit", len(op.Data), PushChunk)
		}
		rebuilt = append(rebuilt, op.Data...)
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Fatal("chunks do not reassemble to the source file")
	}
}

// The tentpole guarantee: a matching replica costs one digest exchange and
// zero mutations; a one-file change ships only that file; and the replica
// tree is never removed wholesale (stays readable throughout).
func TestEnsureTreeDeltaSkipsAndShipsOnlyChanges(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

	files := []string{"f0.txt", "f1.txt", "f2.txt", "f3.txt", "f4.txt"}
	for _, name := range files {
		if err := store.WriteFile("/proj/"+name, []byte("content of "+name)); err != nil {
			t.Fatal(err)
		}
		if err := peer.remote.WriteFile(RepPath("/proj")+"/"+name, []byte("content of "+name)); err != nil {
			t.Fatal(err)
		}
	}
	peer.vers["/proj"] = 1
	tr := Track{PN: "proj", Root: "/proj", Ver: 1}

	// Identical copy, identical version: one digest exchange, no mutations.
	if _, err := e.ensureTree(obs.TraceContext{}, "r1", tr, false); err != nil {
		t.Fatal(err)
	}
	if len(peer.mirrors) != 0 {
		t.Fatalf("matching replica still received %d ops: %v", len(peer.mirrors), peer.mirrors)
	}
	if h := reg.Counter("repl.sync.digest.hits").Load(); h == 0 {
		t.Fatal("digest hit not counted")
	}

	// Touch one file; the delta must ship that file and nothing else.
	if err := store.WriteFile("/proj/f2.txt", []byte("CHANGED")); err != nil {
		t.Fatal(err)
	}
	tr.Ver = 2
	if _, err := e.ensureTree(obs.TraceContext{}, "r1", tr, false); err != nil {
		t.Fatal(err)
	}
	var wrote []string
	for _, m := range peer.mirrors {
		if m.op.Kind == FSRemoveAll {
			t.Fatalf("delta sync issued FSRemoveAll on %s: replicas must stay readable", m.op.Path)
		}
		if m.op.Kind == FSCreate || m.op.Kind == FSWrite || m.op.Kind == FSChunkWrite || m.op.Kind == FSSetattr {
			wrote = append(wrote, m.op.Path)
		}
	}
	for _, p := range wrote {
		if p != "/proj/f2.txt" {
			t.Fatalf("unchanged path %s was re-shipped", p)
		}
	}
	if len(wrote) == 0 {
		t.Fatal("changed file never shipped")
	}

	// The replica's bytes now match the primary's, and the sentinel is gone.
	want, err := merkle.DigestPath(store, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	got, err := merkle.DigestPath(peer.remote, RepPath("/proj"))
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatal("replica digest diverges from primary after delta sync")
	}
	if _, err := peer.remote.LookupPath(RepPath("/proj") + "/" + MigrationFlag); err == nil {
		t.Fatal("migration sentinel left behind after sync")
	}
	if sent := reg.Counter("repl.sync.files.sent").Load(); sent != 1 {
		t.Fatalf("files.sent = %d, want 1", sent)
	}
	if skipped := reg.Counter("repl.sync.files.skipped").Load(); skipped < 4 {
		t.Fatalf("files.skipped = %d, want >= 4", skipped)
	}

	// A deletion propagates as a targeted remove of the stale entry only.
	attr, err := store.LookupPath("/proj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Remove(attr.Ino, "f4.txt"); err != nil {
		t.Fatal(err)
	}
	tr.Ver = 3
	peer.mirrors = nil
	if _, err := e.ensureTree(obs.TraceContext{}, "r1", tr, false); err != nil {
		t.Fatal(err)
	}
	var removed []string
	for _, m := range peer.mirrors {
		if m.op.Kind == FSRemoveAll {
			removed = append(removed, m.op.Path)
		}
	}
	if len(removed) != 1 || removed[0] != "/proj/f4.txt" {
		t.Fatalf("stale-entry removal ops %v, want exactly /proj/f4.txt", removed)
	}
	if _, err := peer.remote.LookupPath(RepPath("/proj") + "/f4.txt"); err == nil {
		t.Fatal("deleted file survived on the replica")
	}
}

// patternBytes generates deterministic content with enough entropy for the
// content-defined chunker to cut naturally.
func patternBytes(n int, seed uint64) []byte {
	b := make([]byte, n)
	s := seed
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = byte(s >> 33)
	}
	return b
}

// The tentpole's delta guarantee, pinned: a small edit to a large file ships
// at most 10% of the file's bytes over the wire. The receiver's stale copy of
// the very file being negotiated is its chunk source — no pre-seeding.
func TestSendFileDeltaWithinTenPercent(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

	const size = 4 << 20
	content := patternBytes(size, 1)
	if err := store.WriteFile("/proj/big.bin", content); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(RepPath("/proj")+"/big.bin", content); err != nil {
		t.Fatal(err)
	}
	peer.vers["/proj"] = 1

	// A 16-byte edit in the middle: only the chunks spanning it change.
	edited := append([]byte(nil), content...)
	copy(edited[size/2:], []byte("EDITED-SIXTEEN-B"))
	if err := store.WriteFile("/proj/big.bin", edited); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ensureTree(obs.TraceContext{}, "r1", Track{PN: "proj", Root: "/proj", Ver: 2}, false); err != nil {
		t.Fatal(err)
	}
	if got, err := peer.remote.ReadFile(RepPath("/proj") + "/big.bin"); err != nil || !bytes.Equal(got, edited) {
		t.Fatalf("replica content diverged after delta (err=%v, %d bytes)", err, len(got))
	}
	shipped := reg.Counter("repl.sync.bytes").Load()
	if shipped == 0 {
		t.Fatal("no bytes shipped for a changed file")
	}
	if shipped > size/10 {
		t.Fatalf("delta shipped %d bytes, want <= %d (10%% of %d)", shipped, size/10, size)
	}
}

// The tentpole's swarm guarantee, pinned: a pull repair with a second settled
// holder available fetches blocks from at least two holders in parallel, and
// the rebuilt tree is byte-identical.
func TestFetchTreeSwarmUsesMultipleHolders(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

	content := patternBytes(1<<20, 7)
	if err := peer.remote.WriteFile(RepPath("/pull")+"/blob.bin", content); err != nil {
		t.Fatal(err)
	}
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", []simnet.Addr{"r2"}, Track{PN: "pull", Root: "/pull"}, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadFile("/pull/blob.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("pulled content diverged (err=%v, %d bytes)", err, len(got))
	}
	if peer.fetches["r1"] == 0 || peer.fetches["r2"] == 0 {
		t.Fatalf("block fetches not spread across holders: %v", peer.fetches)
	}
	if f := reg.Counter("repl.cas.blocks.fetched").Load(); f < 2 {
		t.Fatalf("blocks.fetched = %d, want >= 2", f)
	}
	if b := reg.Counter("repl.fetch.bytes").Load(); b != uint64(len(content)) {
		t.Fatalf("fetch.bytes = %d, want %d", b, len(content))
	}
}

// A holder dying mid-fetch must not fail the repair: its share of the WANT
// list is retried from the version's holder and the tree still converges.
func TestFetchTreeSurvivesDeadHolder(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)

	content := patternBytes(1<<20, 9)
	if err := peer.remote.WriteFile(RepPath("/pull")+"/blob.bin", content); err != nil {
		t.Fatal(err)
	}
	peer.down["r2"] = true
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", []simnet.Addr{"r2"}, Track{PN: "pull", Root: "/pull"}, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadFile("/pull/blob.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("pulled content diverged with a dead holder (err=%v, %d bytes)", err, len(got))
	}
}

// A pull repair against a stale local copy fetches only the missing blocks:
// the local file's unchanged chunks resolve from the local index, not the
// network.
func TestPullFileFetchesOnlyMissingBlocks(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

	const size = 4 << 20
	remote := patternBytes(size, 11)
	stale := append([]byte(nil), remote...)
	copy(stale[size/4:], []byte("STALE-LOCAL-EDIT"))
	if err := peer.remote.WriteFile(RepPath("/pull")+"/doc.bin", remote); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile("/pull/doc.bin", stale); err != nil {
		t.Fatal(err)
	}
	if _, err := e.fetchTree(obs.TraceContext{}, "r1", nil, Track{PN: "pull", Root: "/pull"}, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadFile("/pull/doc.bin"); err != nil || !bytes.Equal(got, remote) {
		t.Fatalf("pulled content diverged (err=%v, %d bytes)", err, len(got))
	}
	if b := reg.Counter("repl.fetch.bytes").Load(); b > size/10 {
		t.Fatalf("pull repair fetched %d bytes, want <= %d (stale copy should serve the rest)", b, size/10)
	}
}

// Content-identical replica whose recorded version lags is re-stamped with a
// single metadata op instead of a re-push.
func TestEnsureTreeRestampsMatchingReplica(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)
	if err := store.WriteFile("/w/x.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := peer.remote.WriteFile(RepPath("/w")+"/x.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	peer.vers["/w"] = 1
	if _, err := e.ensureTree(obs.TraceContext{}, "r1", Track{PN: "w", Root: "/w", Ver: 4}, false); err != nil {
		t.Fatal(err)
	}
	if len(peer.mirrors) != 1 || peer.mirrors[0].op.Kind != FSMkdirAll {
		t.Fatalf("restamp ops %v, want a single FSMkdirAll", peer.mirrors)
	}
	if peer.vers["/w"] != 4 {
		t.Fatalf("replica version %d after restamp, want 4", peer.vers["/w"])
	}
}

// When the replica cannot answer CHUNK_MANIFEST, sendFile falls back to
// shipping the changed file verbatim: a truncating create plus plain
// writes, no chunk references, and the replica still converges.
func TestSendFileFallsBackWhenManifestFails(t *testing.T) {
	peer := newStorePeer()
	e, store, _ := deltaEngine(t, peer)

	content := patternBytes(PushChunk+PushChunk/2, 3)
	if err := store.WriteFile("/proj/blob.bin", content); err != nil {
		t.Fatal(err)
	}
	// The replica's stale copy is longer than the new content, so only a
	// truncating create leaves it byte-identical.
	if err := peer.remote.WriteFile(RepPath("/proj")+"/blob.bin", patternBytes(2*PushChunk, 4)); err != nil {
		t.Fatal(err)
	}
	peer.vers["/proj"] = 1
	peer.down["r1"] = true

	if _, err := e.ensureTree(obs.TraceContext{}, "r1", Track{PN: "proj", Root: "/proj", Ver: 2}, false); err != nil {
		t.Fatal(err)
	}
	kinds := map[FSOpKind]int{}
	for _, m := range peer.mirrors {
		if m.op.Path == "/proj/blob.bin" {
			kinds[m.op.Kind]++
		}
	}
	if kinds[FSCreate] != 1 || kinds[FSWrite] == 0 || kinds[FSChunkWrite] != 0 {
		t.Fatalf("fallback ops on the file %v, want one FSCreate, FSWrites and no FSChunkWrite", kinds)
	}
	if got, err := peer.remote.ReadFile(RepPath("/proj") + "/blob.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("replica diverged after the verbatim fallback (err=%v, %d bytes)", err, len(got))
	}
}

// When the receiver rejects an FSChunkWrite span (its copy mutated between
// negotiation and apply), flush re-ships exactly that span as one verbatim
// FSWrite, and the replica still converges.
func TestSendFileReshipsRejectedChunkSpan(t *testing.T) {
	peer := newStorePeer()
	e, store, reg := deltaEngine(t, peer)

	// Larger than one 4 MiB span, so a later span starts past offset 0.
	const size = 6 << 20
	content := patternBytes(size, 5)
	if err := peer.remote.WriteFile(RepPath("/proj")+"/big.bin", content); err != nil {
		t.Fatal(err)
	}
	edited := append([]byte(nil), content...)
	copy(edited[size/2:], []byte("EDITED-SIXTEEN-B"))
	if err := store.WriteFile("/proj/big.bin", edited); err != nil {
		t.Fatal(err)
	}

	tr := Track{PN: "proj", Root: "/proj", Ver: 2}
	var ops []FSOp
	step := func(op FSOp) error {
		ops = append(ops, op)
		if op.Kind == FSChunkWrite {
			return ErrMissingChunk
		}
		_, err := peer.Mirror(obs.TraceContext{}, "r1", tr, op, false)
		return err
	}
	add := func(simnet.Cost) {}
	if err := e.sendFile(obs.TraceContext{}, "r1", "/proj/big.bin", "/proj/big.bin", false, step, add); err != nil {
		t.Fatal(err)
	}

	spans := 0
	for i, op := range ops {
		if op.Kind != FSChunkWrite {
			continue
		}
		spans++
		var covered int
		for _, ch := range op.Chunks {
			covered += int(ch.Len)
		}
		if i+1 >= len(ops) {
			t.Fatalf("rejected span at %d was never re-shipped", op.Offset)
		}
		next := ops[i+1]
		if next.Kind != FSWrite || next.Offset != op.Offset || len(next.Data) != covered {
			t.Fatalf("after rejected span [%d,+%d) got %v at %d with %d bytes, want one FSWrite of the span",
				op.Offset, covered, next.Kind, next.Offset, len(next.Data))
		}
		if !bytes.Equal(next.Data, edited[op.Offset:op.Offset+int64(covered)]) {
			t.Fatalf("re-shipped span at %d does not carry the local bytes", op.Offset)
		}
	}
	if spans < 2 {
		t.Fatalf("%d FSChunkWrite spans offered, want >= 2", spans)
	}
	if b := reg.Counter("repl.sync.bytes").Load(); b != size {
		t.Fatalf("sync.bytes = %d, want %d (every span re-shipped verbatim)", b, size)
	}
	if got, err := peer.remote.ReadFile(RepPath("/proj") + "/big.bin"); err != nil || !bytes.Equal(got, edited) {
		t.Fatalf("replica diverged after the re-shipped spans (err=%v, %d bytes)", err, len(got))
	}
}
