// Package core implements Kosha itself (Sections 3-5): the koshad loopback
// daemon that interposes on NFS operations for the virtual mount, hashes
// directory names onto the Pastry overlay, forwards NFS RPCs to the node
// that stores each directory, maintains K replicas on leaf-set neighbors,
// and transparently fails over when nodes die.
//
// Layout of each node's contributed store (its /kosha_store): the store's
// root corresponds to the virtual root /kosha. A distributed directory at
// virtual depth i is identified by the chain of placement names of its
// controlling ancestors (pn_1 .. pn_i, each a directory name optionally
// carrying a "#salt" redirection suffix, Section 3.3); its subtree is
// stored on the node owning hash(pn_i), rooted at a single store-level
// directory that encodes the whole chain (see ChainRoot). Files and deeper
// (non-distributed) subdirectories nest below that root under their plain
// names (Section 3.1). The parent directory lists a distributed child via a
// special link — a symlink named `name` whose target is the child's
// placement name — which resolution follows before rehashing, exactly as in
// Section 3.3.
package core

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/repl"
)

// SaltSep separates a directory name from its redirection salt in placement
// names. Names containing it are reserved by Kosha.
const SaltSep = "#"

// MigrationFlag is the sentinel file created at the root of a replicated
// hierarchy while content migration is in flight (see repl.MigrationFlag).
const MigrationFlag = repl.MigrationFlag

// saltLen is the number of hex digits in a redirection salt.
const saltLen = 8

// Salt derives the deterministic salt for the attempt'th redirection of a
// directory name. The paper concatenates "a random salt"; a deterministic
// per-attempt salt has the same placement properties (uniform rehash) while
// keeping simulations reproducible across the 50-seed sweeps.
func Salt(name string, attempt int) string {
	sum := sha1.Sum([]byte(fmt.Sprintf("%s|salt|%d", name, attempt)))
	return hex.EncodeToString(sum[:])[:saltLen]
}

// Salted returns the placement name for the attempt'th redirection of name;
// attempt 0 is the unsalted name.
func Salted(name string, attempt int) string {
	if attempt == 0 {
		return name
	}
	return name + SaltSep + Salt(name, attempt)
}

// IsSalted reports whether s looks like a salted placement name.
func IsSalted(s string) bool {
	i := strings.LastIndex(s, SaltSep)
	if i < 0 || len(s)-i-1 != saltLen {
		return false
	}
	for _, c := range s[i+1:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// BaseName strips the salt from a placement name.
func BaseName(pn string) string {
	if IsSalted(pn) {
		return pn[:strings.LastIndex(pn, SaltSep)]
	}
	return pn
}

// Key returns the DHT key for a placement name: "a 128-bit unique key is
// created via a SHA-1 hash of the directory name" (Section 3.1).
func Key(pn string) id.ID { return id.HashKey(pn) }

// SplitVirtual normalizes a virtual path (relative to the mount point) and
// returns its components. "/" yields nil. A path that is already clean and
// absolute is split as it stands, without being cleaned again.
func SplitVirtual(vpath string) []string {
	clean := localfs.Clean(vpath)
	if clean == "/" {
		return nil
	}
	return strings.Split(clean[1:], "/")
}

// JoinVirtual reassembles components into a canonical virtual path.
func JoinVirtual(parts []string) string {
	if len(parts) == 0 {
		return "/"
	}
	return joinUnder("", parts)
}

// joinUnder appends "/"+part for every part to base in one allocation.
func joinUnder(base string, parts []string) string {
	n := len(base)
	for _, part := range parts {
		n += 1 + len(part)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(base)
	for _, part := range parts {
		b.WriteByte('/')
		b.WriteString(part)
	}
	return b.String()
}

// virtualDepth is len(SplitVirtual(vpath)), counted without splitting.
func virtualDepth(vpath string) int {
	clean := localfs.Clean(vpath)
	if clean == "/" {
		return 0
	}
	return strings.Count(clean, "/")
}

// ControllingDepth returns the depth (1-based component index) of the
// directory that controls placement of a path whose directory chain has
// dirDepth components, under distribution level L: subdirectories deeper
// than L stay on the same node as their depth-L ancestor (Section 3.2).
func ControllingDepth(dirDepth, level int) int {
	if level < 1 {
		level = 1
	}
	if dirDepth < level {
		return dirDepth
	}
	return level
}

// ChainSep is the reserved control byte prefixing every allocated storage
// root (see Node.newStoreRoot): it keeps subtree storage out of virtual
// listings and out of reach of user names, so a hierarchy's data can never
// collide with a parent directory's own content when one node hosts both —
// the parent's entry for a distributed child is always the special link.
const ChainSep = "\x01"

// ChainRoot joins placement names into a deterministic store path; used by
// tests that reason about legacy chain-style layouts.
func ChainRoot(chain []string) string {
	if len(chain) == 0 {
		return "/"
	}
	return "/" + strings.Join(chain, ChainSep)
}

// PhysPath joins a chain root with components below it.
func PhysPath(chain []string, rest []string) string {
	root := ChainRoot(chain)
	if len(rest) == 0 {
		return root
	}
	if root == "/" {
		return "/" + strings.Join(rest, "/")
	}
	return root + "/" + strings.Join(rest, "/")
}

// LinkMarker prefixes every special link's target, distinguishing Kosha's
// placement links from user-created symlinks regardless of how the link is
// later renamed (a renamed link keeps pointing at the original placement
// name, Section 4.1.4).
const LinkMarker = "\x02"

// linkSep separates the placement name from the storage root inside a
// special link's target.
const linkSep = "\x03"

// MakeLinkTarget encodes a special-link target: the placement name (whose
// hash selects the storage node) plus the hierarchy's physical storage
// root on that node. Decoupling the storage root from the name is what
// makes renames cheap AND safe: a rename relocates the root to a fresh
// path (a local rename on the holder), so any resolver cache still mapping
// the old virtual name to the old storage path dangles harmlessly instead
// of aliasing the renamed directory.
func MakeLinkTarget(pn, storeRoot string) string {
	return LinkMarker + pn + linkSep + storeRoot
}

// ParseLinkTarget decodes a symlink target; ok is false for user symlinks.
func ParseLinkTarget(target string) (pn, storeRoot string, ok bool) {
	if !strings.HasPrefix(target, LinkMarker) {
		return "", "", false
	}
	rest := target[len(LinkMarker):]
	i := strings.Index(rest, linkSep)
	if i < 0 {
		return "", "", false
	}
	return rest[:i], rest[i+len(linkSep):], true
}

// RepArea is the reserved store subtree holding replica copies (see
// repl.RepArea).
const RepArea = repl.RepArea

// RepPath translates a primary-relative physical path into the replica
// area.
func RepPath(p string) string { return repl.RepPath(p) }

// ValidName reports whether a name may be created in the virtual file
// system. Besides the usual component rules, names matching the salted
// placement pattern and names containing Kosha's reserved control bytes
// are rejected: they would be ambiguous with redirection artifacts
// (Section 3.3's "#salt" concatenation reserves that shape).
func ValidName(name string) error {
	switch {
	case name == "" || name == "." || name == "..":
		return fmt.Errorf("kosha: invalid name %q", name)
	case len(name) > 255:
		return fmt.Errorf("kosha: name too long (%d bytes)", len(name))
	case strings.ContainsRune(name, '/'):
		return fmt.Errorf("kosha: name %q contains '/'", name)
	case strings.Contains(name, ChainSep) || strings.Contains(name, LinkMarker) || strings.Contains(name, linkSep):
		return fmt.Errorf("kosha: name %q contains a reserved control byte", name)
	case IsSalted(name):
		return fmt.Errorf("kosha: name %q matches the reserved redirection pattern", name)
	case name == MigrationFlag:
		return fmt.Errorf("kosha: name %q is reserved", name)
	case name == RepArea[1:]:
		return fmt.Errorf("kosha: name %q is reserved", name)
	}
	return nil
}

// Hidden reports whether a physical directory entry must be hidden from
// virtual listings: salted placement directories (their special link
// already lists them under the plain name), the migration flag, and the
// replica area.
func Hidden(name string) bool {
	return name == MigrationFlag || name == RepArea[1:] || IsSalted(name) ||
		strings.Contains(name, ChainSep)
}
