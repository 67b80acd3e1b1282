// Package localfs implements the per-node local file system that backs each
// Kosha node's contributed partition (/kosha_store, Section 5: "A local disk
// partition is created and used for space contribution. The size of the
// partition provides control over the amount of disk space contributed").
//
// It is an in-memory POSIX-ish tree with inodes, directories, regular files,
// and symbolic links (Kosha's special links are symlinks, Section 3.3),
// plus capacity accounting so that insertions fail with ErrNoSpace exactly
// as a full partition would — the mechanism Kosha's redirection reacts to.
// Every mutating or data-moving operation returns a simulated disk Cost.
package localfs

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/simnet"
)

// File types, mirroring NFSv3 ftype3 values we support.
type FileType uint32

const (
	TypeRegular FileType = 1 // NF3REG
	TypeDir     FileType = 2 // NF3DIR
	TypeSymlink FileType = 5 // NF3LNK
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("ftype(%d)", uint32(t))
	}
}

// Errors map one-to-one onto NFSv3 status codes in internal/nfs.
var (
	ErrNoEnt    = errors.New("localfs: no such file or directory")
	ErrExist    = errors.New("localfs: file exists")
	ErrNotDir   = errors.New("localfs: not a directory")
	ErrIsDir    = errors.New("localfs: is a directory")
	ErrNotEmpty = errors.New("localfs: directory not empty")
	ErrNoSpace  = errors.New("localfs: no space left on contributed partition")
	ErrStale    = errors.New("localfs: stale file handle")
	ErrInval    = errors.New("localfs: invalid argument")
	ErrTooBig   = errors.New("localfs: file too large")
)

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// MaxFileSize bounds one file (NFSv3 uses 64-bit sizes; we cap for safety).
const MaxFileSize = int64(1) << 40

// Attr is the subset of NFSv3 fattr3 the system uses.
type Attr struct {
	Ino   uint64
	Type  FileType
	Mode  uint32
	Nlink uint32
	UID   uint32
	GID   uint32
	Size  int64
	Atime time.Time
	Mtime time.Time
	Ctime time.Time
}

// SetAttr carries the mutable attributes for Setattr; nil fields are left
// unchanged.
type SetAttr struct {
	Mode  *uint32
	UID   *uint32
	GID   *uint32
	Size  *int64
	Mtime *time.Time
	Atime *time.Time
}

// DirEntry is one name in a directory listing.
type DirEntry struct {
	Name string
	Ino  uint64
	Type FileType
}

type inode struct {
	ino      uint64
	typ      FileType
	mode     uint32
	uid, gid uint32
	atime    time.Time
	mtime    time.Time
	ctime    time.Time

	data     fileData          // TypeRegular
	children map[string]*inode // TypeDir
	target   string            // TypeSymlink

	parent *inode
	name   string
}

func (in *inode) size() int64 {
	switch in.typ {
	case TypeRegular:
		return in.data.size
	case TypeSymlink:
		return int64(len(in.target))
	default:
		return 0
	}
}

func (in *inode) nlink() uint32 {
	if in.typ != TypeDir {
		return 1
	}
	n := uint32(2)
	for _, c := range in.children {
		if c.typ == TypeDir {
			n++
		}
	}
	return n
}

// FS is one node's contributed partition.
type FS struct {
	mu       sync.RWMutex
	root     *inode
	inodes   map[uint64]*inode
	nextIno  uint64
	capacity int64 // bytes; 0 means unlimited
	used     int64
	files    int64 // count of regular files
	disk     simnet.DiskModel
	now      func() time.Time
	// InodeOverhead is charged against capacity per inode, modeling
	// metadata blocks. Zero by default to match the paper's accounting,
	// which counts file bytes against contributed gigabytes.
	inodeOverhead int64

	// notify holds mutation subscribers (OnMutation). Hooks run with f.mu
	// held, so they must not call back into the file system.
	notify []func(path string)
}

// MutationNotifier is implemented by stores that report successful
// mutations by path. Digest caches (internal/merkle) subscribe so their
// memoized hashes are invalidated exactly when content changes.
type MutationNotifier interface {
	// OnMutation registers fn to be called with the affected store path
	// after every successful mutating operation. The path is clean and
	// absolute (path.Clean leaves it unchanged), so subscribers use it as
	// is rather than cleaning it again. fn runs under the store's internal
	// lock: it must be fast and must not call back into the store.
	OnMutation(fn func(path string))
}

// Option configures an FS.
type Option func(*FS)

// WithClock overrides the time source (deterministic tests).
func WithClock(now func() time.Time) Option { return func(f *FS) { f.now = now } }

// WithInodeOverhead charges n bytes of capacity per inode.
func WithInodeOverhead(n int64) Option { return func(f *FS) { f.inodeOverhead = n } }

// New creates a file system with the given capacity in bytes (0 = unlimited)
// and disk cost model.
func New(capacity int64, disk simnet.DiskModel, opts ...Option) *FS {
	fs := &FS{
		inodes:   make(map[uint64]*inode),
		capacity: capacity,
		disk:     disk,
		now:      time.Now,
	}
	for _, o := range opts {
		o(fs)
	}
	t := fs.now()
	fs.root = &inode{
		ino:      1,
		typ:      TypeDir,
		mode:     0o755,
		children: make(map[string]*inode),
		atime:    t, mtime: t, ctime: t,
	}
	fs.nextIno = 2
	fs.inodes[1] = fs.root
	fs.used = fs.inodeOverhead
	return fs
}

// RootIno is the inode number of the root directory.
const RootIno uint64 = 1

// Capacity returns the contributed bytes (0 = unlimited).
func (f *FS) Capacity() int64 { return f.capacity }

// Used returns the bytes currently charged against capacity.
func (f *FS) Used() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.used
}

// Utilization returns used/capacity in [0,1]; 0 when capacity is unlimited.
func (f *FS) Utilization() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.capacity == 0 {
		return 0
	}
	return float64(f.used) / float64(f.capacity)
}

// NumFiles returns the number of regular files.
func (f *FS) NumFiles() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.files
}

func (f *FS) get(ino uint64) (*inode, error) {
	in, ok := f.inodes[ino]
	if !ok {
		return nil, fmt.Errorf("%w: ino %d", ErrStale, ino)
	}
	return in, nil
}

func (f *FS) getDir(ino uint64) (*inode, error) {
	in, err := f.get(ino)
	if err != nil {
		return nil, err
	}
	if in.typ != TypeDir {
		return nil, ErrNotDir
	}
	return in, nil
}

func (f *FS) attrOf(in *inode) Attr {
	return Attr{
		Ino:   in.ino,
		Type:  in.typ,
		Mode:  in.mode,
		Nlink: in.nlink(),
		UID:   in.uid,
		GID:   in.gid,
		Size:  in.size(),
		Atime: in.atime,
		Mtime: in.mtime,
		Ctime: in.ctime,
	}
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("%w: bad name %q", ErrInval, name)
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("%w: name too long", ErrInval)
	}
	if strings.ContainsRune(name, '/') {
		return fmt.Errorf("%w: name %q contains '/'", ErrInval, name)
	}
	return nil
}

// OnMutation registers a mutation subscriber; see MutationNotifier.
func (f *FS) OnMutation(fn func(path string)) {
	f.mu.Lock()
	f.notify = append(f.notify, fn)
	f.mu.Unlock()
}

// noteMutation reports a successful mutation at p. Caller holds f.mu.
func (f *FS) noteMutation(p string) {
	for _, fn := range f.notify {
		fn(p)
	}
}

// noteInode reports a successful mutation of in, building its path only
// when there is a subscriber to hear it. Caller holds f.mu.
func (f *FS) noteInode(in *inode) {
	if len(f.notify) > 0 {
		f.noteMutation(f.pathOf(in))
	}
}

// pathOf reconstructs an inode's absolute path from its parent/name
// backpointers, for mutation notifications on handle-based ops. It sizes
// the path first and builds it in one allocation. Caller holds f.mu.
// Returns "" for unlinked inodes.
func (f *FS) pathOf(in *inode) string {
	if in == f.root {
		return "/"
	}
	n := 0
	for cur := in; cur != f.root; cur = cur.parent {
		if cur == nil {
			return ""
		}
		n += 1 + len(cur.name)
	}
	buf := make([]byte, n)
	for cur := in; cur != f.root; cur = cur.parent {
		n -= len(cur.name)
		copy(buf[n:], cur.name)
		n--
		buf[n] = '/'
	}
	// buf is never written again, so the string may share it, as
	// strings.Builder does.
	return unsafe.String(&buf[0], len(buf))
}

// charge reserves n additional bytes against capacity (n may be negative).
func (f *FS) charge(n int64) error {
	if f.capacity > 0 && n > 0 && f.used+n > f.capacity {
		return ErrNoSpace
	}
	f.used += n
	return nil
}

// Getattr returns the attributes for ino.
func (f *FS) Getattr(ino uint64) (Attr, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	in, err := f.get(ino)
	if err != nil {
		return Attr{}, f.disk.OpCost(0), err
	}
	return f.attrOf(in), f.disk.OpCost(0), nil
}

// Setattr updates mutable attributes; Size changes truncate or extend.
func (f *FS) Setattr(ino uint64, sa SetAttr) (Attr, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	in, err := f.get(ino)
	if err != nil {
		return Attr{}, cost, err
	}
	if sa.Size != nil {
		if in.typ == TypeDir {
			return Attr{}, cost, ErrIsDir
		}
		if in.typ != TypeRegular {
			return Attr{}, cost, ErrInval
		}
		ns := *sa.Size
		if ns < 0 || ns > MaxFileSize {
			return Attr{}, cost, ErrTooBig
		}
		delta := ns - in.data.size
		if err := f.charge(delta); err != nil {
			return Attr{}, cost, err
		}
		in.data.truncate(ns)
		in.mtime = f.now()
		cost = simnet.Seq(cost, f.disk.OpCost(int(abs64(delta))))
	}
	if sa.Mode != nil {
		in.mode = *sa.Mode
	}
	if sa.UID != nil {
		in.uid = *sa.UID
	}
	if sa.GID != nil {
		in.gid = *sa.GID
	}
	if sa.Mtime != nil {
		in.mtime = *sa.Mtime
	}
	if sa.Atime != nil {
		in.atime = *sa.Atime
	}
	in.ctime = f.now()
	f.noteInode(in)
	return f.attrOf(in), cost, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Lookup finds name within directory dirIno.
func (f *FS) Lookup(dirIno uint64, name string) (Attr, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	child, ok := dir.children[name]
	if !ok {
		return Attr{}, cost, fmt.Errorf("%w: %q in ino %d", ErrNoEnt, name, dirIno)
	}
	return f.attrOf(child), cost, nil
}

// Create makes a regular file. exclusive controls EEXIST semantics: when
// false and the name exists as a regular file, it is truncated (NFSv3
// UNCHECKED create).
func (f *FS) Create(dirIno uint64, name string, mode uint32, exclusive bool) (Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	if existing, ok := dir.children[name]; ok {
		if exclusive {
			return Attr{}, cost, fmt.Errorf("%w: %q", ErrExist, name)
		}
		if existing.typ != TypeRegular {
			return Attr{}, cost, ErrIsDir
		}
		f.used -= existing.data.size
		existing.data.truncate(0)
		existing.mtime = f.now()
		f.noteInode(existing)
		return f.attrOf(existing), cost, nil
	}
	if err := f.charge(f.inodeOverhead); err != nil {
		return Attr{}, cost, err
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeRegular, mode: mode,
		atime: t, mtime: t, ctime: t,
		parent: dir, name: name,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.children[name] = in
	dir.mtime = t
	f.files++
	f.noteInode(in)
	return f.attrOf(in), cost, nil
}

// Mkdir makes a directory.
func (f *FS) Mkdir(dirIno uint64, name string, mode uint32) (Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	if _, ok := dir.children[name]; ok {
		return Attr{}, cost, fmt.Errorf("%w: %q", ErrExist, name)
	}
	if err := f.charge(f.inodeOverhead); err != nil {
		return Attr{}, cost, err
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeDir, mode: mode,
		children: make(map[string]*inode),
		atime:    t, mtime: t, ctime: t,
		parent: dir, name: name,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.children[name] = in
	dir.mtime = t
	f.noteInode(in)
	return f.attrOf(in), cost, nil
}

// Symlink makes a symbolic link with the given target.
func (f *FS) Symlink(dirIno uint64, name, target string) (Attr, simnet.Cost, error) {
	if err := checkName(name); err != nil {
		return Attr{}, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return Attr{}, cost, err
	}
	if _, ok := dir.children[name]; ok {
		return Attr{}, cost, fmt.Errorf("%w: %q", ErrExist, name)
	}
	if err := f.charge(f.inodeOverhead + int64(len(target))); err != nil {
		return Attr{}, cost, err
	}
	t := f.now()
	in := &inode{
		ino: f.nextIno, typ: TypeSymlink, mode: 0o777,
		target: target,
		atime:  t, mtime: t, ctime: t,
		parent: dir, name: name,
	}
	f.nextIno++
	f.inodes[in.ino] = in
	dir.children[name] = in
	dir.mtime = t
	f.noteInode(in)
	return f.attrOf(in), cost, nil
}

// Readlink returns a symlink's target.
func (f *FS) Readlink(ino uint64) (string, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	cost := f.disk.OpCost(0)
	in, err := f.get(ino)
	if err != nil {
		return "", cost, err
	}
	if in.typ != TypeSymlink {
		return "", cost, ErrInval
	}
	return in.target, cost, nil
}

// Read returns up to count bytes at offset. eof is true when the read
// reaches the end of the file.
func (f *FS) Read(ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	return f.ReadAppend(nil, ino, offset, count)
}

// ReadAppend is Read appending the bytes to dst: the one copy out of the
// file lands wherever the caller's buffer is (an NFS reply frame).
func (f *FS) ReadAppend(dst []byte, ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	in, err := f.get(ino)
	if err != nil {
		return dst, false, f.disk.OpCost(0), err
	}
	if in.typ == TypeDir {
		return dst, false, f.disk.OpCost(0), ErrIsDir
	}
	if in.typ != TypeRegular {
		return dst, false, f.disk.OpCost(0), ErrInval
	}
	if offset < 0 || count < 0 {
		return dst, false, f.disk.OpCost(0), ErrInval
	}
	size := in.data.size
	if offset >= size {
		return dst, true, f.disk.OpCost(0), nil
	}
	end := min(offset+int64(count), size)
	return in.data.appendTo(dst, offset, end), end == size, f.disk.OpCost(int(end - offset)), nil
}

// Write stores data at offset, extending the file as needed.
func (f *FS) Write(ino uint64, offset int64, data []byte) (int, simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(len(data))
	in, err := f.get(ino)
	if err != nil {
		return 0, f.disk.OpCost(0), err
	}
	if in.typ == TypeDir {
		return 0, f.disk.OpCost(0), ErrIsDir
	}
	if in.typ != TypeRegular {
		return 0, f.disk.OpCost(0), ErrInval
	}
	if offset < 0 {
		return 0, f.disk.OpCost(0), ErrInval
	}
	end := offset + int64(len(data))
	if end > MaxFileSize {
		return 0, f.disk.OpCost(0), ErrTooBig
	}
	if grow := end - in.data.size; grow > 0 {
		if err := f.charge(grow); err != nil {
			return 0, f.disk.OpCost(0), err
		}
	}
	in.data.write(offset, data)
	in.mtime = f.now()
	f.noteInode(in)
	return len(data), cost, nil
}

// Remove unlinks a regular file or symlink.
func (f *FS) Remove(dirIno uint64, name string) (simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return cost, err
	}
	in, ok := dir.children[name]
	if !ok {
		return cost, fmt.Errorf("%w: %q", ErrNoEnt, name)
	}
	if in.typ == TypeDir {
		return cost, ErrIsDir
	}
	f.unlink(dir, in)
	return cost, nil
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(dirIno uint64, name string) (simnet.Cost, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	dir, err := f.getDir(dirIno)
	if err != nil {
		return cost, err
	}
	in, ok := dir.children[name]
	if !ok {
		return cost, fmt.Errorf("%w: %q", ErrNoEnt, name)
	}
	if in.typ != TypeDir {
		return cost, ErrNotDir
	}
	if len(in.children) > 0 {
		return cost, ErrNotEmpty
	}
	f.unlink(dir, in)
	return cost, nil
}

// unlink detaches in from dir and releases its storage. Caller holds f.mu
// and has verified membership.
func (f *FS) unlink(dir, in *inode) {
	p := f.pathOf(in)
	delete(dir.children, in.name)
	delete(f.inodes, in.ino)
	f.used -= in.size() + f.inodeOverhead
	if in.typ == TypeRegular {
		f.files--
	}
	in.parent = nil
	dir.mtime = f.now()
	if p != "" {
		f.noteMutation(p)
	}
}

// Rename moves srcName in srcDir to dstName in dstDir, overwriting a
// compatible destination per POSIX rules.
func (f *FS) Rename(srcDir uint64, srcName string, dstDir uint64, dstName string) (simnet.Cost, error) {
	if err := checkName(dstName); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.disk.OpCost(0)
	sd, err := f.getDir(srcDir)
	if err != nil {
		return cost, err
	}
	dd, err := f.getDir(dstDir)
	if err != nil {
		return cost, err
	}
	in, ok := sd.children[srcName]
	if !ok {
		return cost, fmt.Errorf("%w: %q", ErrNoEnt, srcName)
	}
	// Moving a directory into its own subtree would orphan it.
	if in.typ == TypeDir {
		for p := dd; p != nil; p = p.parent {
			if p == in {
				return cost, fmt.Errorf("%w: rename into own subtree", ErrInval)
			}
		}
	}
	if existing, ok := dd.children[dstName]; ok && existing != in {
		switch {
		case existing.typ == TypeDir && in.typ != TypeDir:
			return cost, ErrIsDir
		case existing.typ != TypeDir && in.typ == TypeDir:
			return cost, ErrNotDir
		case existing.typ == TypeDir && len(existing.children) > 0:
			return cost, ErrNotEmpty
		}
		f.unlink(dd, existing)
	}
	oldPath := f.pathOf(in)
	delete(sd.children, in.name)
	in.name = dstName
	in.parent = dd
	dd.children[dstName] = in
	t := f.now()
	sd.mtime, dd.mtime, in.ctime = t, t, t
	if oldPath != "" {
		f.noteMutation(oldPath)
	}
	f.noteInode(in)
	return cost, nil
}

// Readdir lists a directory in lexicographic order.
func (f *FS) Readdir(ino uint64) ([]DirEntry, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	dir, err := f.getDir(ino)
	if err != nil {
		return nil, f.disk.OpCost(0), err
	}
	out := make([]DirEntry, 0, len(dir.children))
	for name, c := range dir.children {
		out = append(out, DirEntry{Name: name, Ino: c.ino, Type: c.typ})
	}
	slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return out, f.disk.OpCost(len(out) * 32), nil
}

// FSStat reports capacity accounting, the input to Kosha's redirection
// decision (Section 3.3).
type FSStat struct {
	TotalBytes int64 // 0 when unlimited
	UsedBytes  int64
	Files      int64
}

// Statfs returns capacity accounting.
func (f *FS) Statfs() (FSStat, simnet.Cost, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return FSStat{TotalBytes: f.capacity, UsedBytes: f.used, Files: f.files}, f.disk.OpCost(0), nil
}

// --- path helpers (used by Kosha's store management, tests, and tools) ---

// Clean returns p as a clean absolute path, path.Clean("/"+p). A path that
// already is one comes back as it is, without allocating: path.Clean only
// allocates when its result differs from its input, and prefixing the
// slash is skipped for a path that has one.
func Clean(p string) string {
	if strings.HasPrefix(p, "/") {
		return path.Clean(p)
	}
	return path.Clean("/" + p)
}

// pathWalker yields the components of a clean absolute path in order,
// slicing them out of the path in place.
type pathWalker struct{ rest string }

// next returns the next component, or ok == false past the last one.
func (w *pathWalker) next() (part string, ok bool) {
	if w.rest == "" {
		return "", false
	}
	part, w.rest, _ = strings.Cut(w.rest, "/")
	return part, true
}

// walkPath cleans p (see Clean), checks every component with checkName,
// and returns the clean path with a walker over its components. The root
// has none. A path that is already clean is checked and walked without
// allocating; hostile input is cleaned first, so it is held to exactly the
// rules of path.Clean, strings.Split and checkName.
func walkPath(p string) (string, pathWalker, error) {
	clean := Clean(p)
	w := pathWalker{rest: clean[1:]}
	for check := w; ; {
		part, ok := check.next()
		if !ok {
			return clean, w, nil
		}
		if err := checkName(part); err != nil {
			return "", pathWalker{}, err
		}
	}
}

// resolve walks p from the root without following symlinks, returning the
// inode it names and the clean path. Caller holds f.mu.
func (f *FS) resolve(p string) (*inode, string, error) {
	clean, w, err := walkPath(p)
	if err != nil {
		return nil, "", err
	}
	cur := f.root
	for part, ok := w.next(); ok; part, ok = w.next() {
		if cur.typ != TypeDir {
			return nil, "", ErrNotDir
		}
		next, found := cur.children[part]
		if !found {
			return nil, "", fmt.Errorf("%w: %q", ErrNoEnt, p)
		}
		cur = next
	}
	return cur, clean, nil
}

// LookupPath walks an absolute slash-separated path from the root without
// following symlinks in intermediate components (Kosha resolves its special
// links itself, at the overlay layer, not in the local FS).
func (f *FS) LookupPath(p string) (Attr, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	in, _, err := f.resolve(p)
	if err != nil {
		return Attr{}, err
	}
	return f.attrOf(in), nil
}

// MkdirAll creates the directory path p (mode 0755) and any missing
// ancestors, returning the attributes of the final directory.
func (f *FS) MkdirAll(p string) (Attr, error) {
	clean, w, err := walkPath(p)
	if err != nil {
		return Attr{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.root
	created := false
	for part, ok := w.next(); ok; part, ok = w.next() {
		if cur.typ != TypeDir {
			return Attr{}, ErrNotDir
		}
		next, found := cur.children[part]
		if !found {
			if err := f.charge(f.inodeOverhead); err != nil {
				return Attr{}, err
			}
			t := f.now()
			next = &inode{
				ino: f.nextIno, typ: TypeDir, mode: 0o755,
				children: make(map[string]*inode),
				atime:    t, mtime: t, ctime: t,
				parent: cur, name: part,
			}
			f.nextIno++
			f.inodes[next.ino] = next
			cur.children[part] = next
			cur.mtime = t
			created = true
		} else if next.typ != TypeDir {
			return Attr{}, fmt.Errorf("%w: %q", ErrNotDir, part)
		}
		cur = next
	}
	if created {
		f.noteMutation(clean)
	}
	return f.attrOf(cur), nil
}

// RemoveAll removes the subtree rooted at path p; missing paths are not an
// error, matching os.RemoveAll.
func (f *FS) RemoveAll(p string) error {
	clean, _, err := walkPath(p)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if clean == "/" {
		// Clearing the root: drop all children (used when a revived node
		// purges its store, Section 4.3.2).
		for _, c := range f.root.children {
			f.release(c)
		}
		f.root.children = make(map[string]*inode)
		f.noteMutation("/")
		return nil
	}
	cur := f.root
	w := pathWalker{rest: path.Dir(clean)[1:]}
	for part, ok := w.next(); ok; part, ok = w.next() {
		next, found := cur.children[part]
		if !found || next.typ != TypeDir {
			return nil
		}
		cur = next
	}
	name := path.Base(clean)
	in, ok := cur.children[name]
	if !ok {
		return nil
	}
	f.release(in)
	delete(cur.children, name)
	cur.mtime = f.now()
	f.noteMutation(clean)
	return nil
}

// release recursively frees an inode subtree. Caller holds f.mu.
func (f *FS) release(in *inode) {
	if in.typ == TypeDir {
		for _, c := range in.children {
			f.release(c)
		}
	}
	delete(f.inodes, in.ino)
	f.used -= in.size() + f.inodeOverhead
	if in.typ == TypeRegular {
		f.files--
	}
}

// WalkFunc visits one inode during Walk. Path is absolute.
type WalkFunc func(p string, attr Attr, symlinkTarget string) error

// Walk visits the subtree rooted at p in depth-first lexicographic order,
// used by replication and migration to enumerate a hierarchy.
func (f *FS) Walk(p string, fn WalkFunc) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	cur, clean, err := f.resolve(p)
	if err != nil {
		return err
	}
	return f.walk(clean, cur, fn)
}

func (f *FS) walk(p string, in *inode, fn WalkFunc) error {
	if err := fn(p, f.attrOf(in), in.target); err != nil {
		return err
	}
	if in.typ != TypeDir {
		return nil
	}
	names := make([]string, 0, len(in.children))
	for name := range in.children {
		names = append(names, name)
	}
	sort.Strings(names)
	prefix := p
	if p == "/" {
		prefix = ""
	}
	for _, name := range names {
		child := in.children[name]
		if err := f.walk(prefix+"/"+name, child, fn); err != nil {
			return err
		}
	}
	return nil
}

// ReadFile is a convenience that reads a whole file by path.
func (f *FS) ReadFile(p string) ([]byte, error) {
	attr, err := f.LookupPath(p)
	if err != nil {
		return nil, err
	}
	data, _, _, err := f.Read(attr.Ino, 0, int(attr.Size))
	return data, err
}

// WriteFile is a convenience that creates (or truncates) a file by path and
// writes data, creating missing ancestor directories.
func (f *FS) WriteFile(p string, data []byte) error {
	clean := Clean(p)
	if clean == "/" {
		return ErrInval
	}
	dattr, err := f.MkdirAll(path.Dir(clean))
	if err != nil {
		return err
	}
	fattr, _, err := f.Create(dattr.Ino, path.Base(clean), 0o644, false)
	if err != nil {
		return err
	}
	_, _, err = f.Write(fattr.Ino, 0, data)
	return err
}

// CorruptFile flips one byte of the regular file at p — at offset off
// modulo the file length — WITHOUT firing mutation notifications. It models
// silent media bit-rot: digest caches and replication hooks subscribe to
// mutations, so the flip leaves every memoized digest stale and only a
// fresh re-hash of the bytes (the anti-entropy scrub) can detect it.
func (f *FS) CorruptFile(p string, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur, _, err := f.resolve(p)
	if err != nil {
		return err
	}
	if cur.typ != TypeRegular {
		return fmt.Errorf("%w: corrupt %q: not a regular file", ErrInval, p)
	}
	size := cur.data.size
	if size == 0 {
		return fmt.Errorf("%w: corrupt %q: empty file", ErrInval, p)
	}
	i := off % size
	if i < 0 {
		i += size
	}
	cur.data.flip(i)
	return nil
}

// Corrupter is implemented by stores that support silent bit-rot fault
// injection (see FS.CorruptFile). Chaos scenarios type-assert for it.
type Corrupter interface {
	CorruptFile(p string, off int64) error
}

var _ Corrupter = (*FS)(nil)

// ReadAppender is implemented by stores that can read straight into a
// caller's buffer. ReadAppend behaves exactly like Read (same bytes, eof,
// cost and errors) but appends the bytes to dst and returns the extended
// slice, dst itself on error.
type ReadAppender interface {
	ReadAppend(dst []byte, ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error)
}

// ReadAppend reads through fs's own ReadAppend when it has one, and through
// Read plus a copy when it does not (a store wrapped by instrumentation).
func ReadAppend(fs FileSystem, dst []byte, ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	if ra, ok := fs.(ReadAppender); ok {
		return ra.ReadAppend(dst, ino, offset, count)
	}
	data, eof, cost, err := fs.Read(ino, offset, count)
	return append(dst, data...), eof, cost, err
}

var _ ReadAppender = (*FS)(nil)

// FileSystem is the store interface Kosha builds on: both the in-memory FS
// in this package and the persistent on-disk store in internal/diskfs
// implement it, so a node's contributed partition can live in RAM (tests,
// emulation, benchmarks) or on a real directory (cmd/koshad -datadir).
type FileSystem interface {
	// Handle-based operations (the NFS server's surface).
	Getattr(ino uint64) (Attr, simnet.Cost, error)
	Setattr(ino uint64, sa SetAttr) (Attr, simnet.Cost, error)
	Lookup(dirIno uint64, name string) (Attr, simnet.Cost, error)
	Create(dirIno uint64, name string, mode uint32, exclusive bool) (Attr, simnet.Cost, error)
	Mkdir(dirIno uint64, name string, mode uint32) (Attr, simnet.Cost, error)
	Symlink(dirIno uint64, name, target string) (Attr, simnet.Cost, error)
	Readlink(ino uint64) (string, simnet.Cost, error)
	Read(ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error)
	Write(ino uint64, offset int64, data []byte) (int, simnet.Cost, error)
	Remove(dirIno uint64, name string) (simnet.Cost, error)
	Rmdir(dirIno uint64, name string) (simnet.Cost, error)
	Rename(srcDir uint64, srcName string, dstDir uint64, dstName string) (simnet.Cost, error)
	Readdir(ino uint64) ([]DirEntry, simnet.Cost, error)
	Statfs() (FSStat, simnet.Cost, error)

	// Path-based conveniences (koshad's store management).
	LookupPath(p string) (Attr, error)
	MkdirAll(p string) (Attr, error)
	RemoveAll(p string) error
	Walk(p string, fn WalkFunc) error
	ReadFile(p string) ([]byte, error)
	WriteFile(p string, data []byte) error

	// Capacity accounting (redirection decisions, experiments).
	Capacity() int64
	Used() int64
	Utilization() float64
	NumFiles() int64
}

// FS implements FileSystem.
var _ FileSystem = (*FS)(nil)
