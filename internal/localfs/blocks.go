package localfs

import (
	"cmp"
	"slices"
)

// blockSize is the unit a regular file's bytes are stored in: the NFS
// transfer size the mount and the benchmarks write with, so an aligned
// write fills whole blocks.
const blockSize = 32 << 10

// block holds the stored bytes of one blockSize-aligned range of a file.
type block struct {
	no int64 // the block covers [no*blockSize, (no+1)*blockSize)
	// data is a prefix of that range, as far as the furthest byte ever
	// written into it. The rest of the range, up to the file size, reads
	// as zeros. data[len(data):cap(data)] is kept zeroed, so the block can
	// grow into its capacity without clearing it.
	data []byte
}

// fileData is a regular file's contents: a size and the blocks written so
// far, sorted by block number. A block that was never written is a hole
// and takes no memory, so the index grows with the blocks written, not
// with the file size. In a file written front to back, blocks[i].no == i
// and every block but the last is full.
//
// A write allocates and copies only the blocks it touches: a new block is
// sized to fit the bytes written into it, an existing one grows by
// doubling up to blockSize, and an overwrite of stored bytes allocates
// nothing.
type fileData struct {
	size   int64
	blocks []block
	// inline backs blocks while the file has at most inlineBlocks, so a
	// file of up to 96 KiB costs no allocation beyond its bytes. blocks
	// points into inline then: a fileData lives inside its inode and is
	// never copied.
	inline [inlineBlocks]block
}

// inlineBlocks is how many block entries an inode holds without a heap
// index. Most files are small (the MAB's source files average 45 KB), and
// one of up to three blocks then allocates one object per block and none
// for its index.
const inlineBlocks = 3

// find returns the index of block no in d.blocks, or the index where it
// would be inserted, and whether it is there.
func (d *fileData) find(no int64) (int, bool) {
	n := len(d.blocks)
	if no < int64(n) && d.blocks[no].no == no {
		return int(no), true // no holes below no
	}
	if n == 0 || d.blocks[n-1].no < no {
		return n, false // past the last block: an append
	}
	return slices.BinarySearchFunc(d.blocks, no, func(b block, no int64) int { return cmp.Compare(b.no, no) })
}

// span returns the stored bytes of block no, grown to at least need bytes
// and so allocating the block if it is a hole.
func (d *fileData) span(no int64, need int) []byte {
	j, ok := d.find(no)
	if !ok {
		d.insert(j, block{no: no, data: make([]byte, need)})
		return d.blocks[j].data
	}
	b := d.blocks[j].data
	switch {
	case len(b) >= need:
		return b
	case cap(b) >= need:
		b = b[:need]
	default:
		nb := make([]byte, need, min(max(need, 2*cap(b)), blockSize))
		copy(nb, b)
		b = nb
	}
	d.blocks[j].data = b
	return b
}

// insert puts b at index j of d.blocks. The index lives in d.inline until
// it outgrows it, then in a heap array of eight entries, doubling after
// that.
func (d *fileData) insert(j int, b block) {
	if d.blocks == nil {
		d.blocks = d.inline[:0]
	}
	if n := len(d.blocks); n == cap(d.blocks) {
		grown := make([]block, n, max(8, 2*n))
		copy(grown, d.blocks)
		d.inline = [inlineBlocks]block{}
		d.blocks = grown
	}
	d.blocks = d.blocks[:len(d.blocks)+1]
	copy(d.blocks[j+1:], d.blocks[j:])
	d.blocks[j] = b
}

// write stores p at off. The caller has checked the bounds and charged any
// growth of the size.
func (d *fileData) write(off int64, p []byte) {
	for len(p) > 0 {
		no := off / blockSize
		lo := int(off - no*blockSize)
		n := copy(d.span(no, min(lo+len(p), blockSize))[lo:], p)
		p = p[n:]
		off += int64(n)
	}
	d.size = max(d.size, off)
}

// appendTo appends bytes [off, end) of the file to dst, zeros for holes.
// The caller has clamped end to the size. A read within one block is a
// single append; a read across blocks first makes room for all of it, so
// dst grows at most once.
func (d *fileData) appendTo(dst []byte, off, end int64) []byte {
	if off/blockSize != (end-1)/blockSize {
		dst = slices.Grow(dst, int(end-off))
	}
	for off < end {
		no := off / blockSize
		base := no * blockSize
		lo, hi := off-base, min(end-base, blockSize)
		if j, ok := d.find(no); ok {
			b := d.blocks[j].data
			if k := min(hi, int64(len(b))); k > lo {
				dst = append(dst, b[lo:k]...)
				lo = k
			}
		}
		if hi > lo {
			dst = append(dst, make([]byte, hi-lo)...)
		}
		off = base + hi
	}
	return dst
}

// truncate sets the size to ns. Extending only records the size: the new
// range is a hole. Shrinking drops the blocks past ns and cuts the last
// one kept, zeroing what it cuts off.
func (d *fileData) truncate(ns int64) {
	if ns < d.size {
		j, _ := d.find((ns + blockSize - 1) / blockSize)
		clear(d.blocks[j:])
		if j == 0 {
			d.blocks = nil
		} else {
			d.blocks = d.blocks[:j]
			last := &d.blocks[j-1]
			if keep := ns - last.no*blockSize; int64(len(last.data)) > keep {
				clear(last.data[keep:])
				last.data = last.data[:keep]
			}
		}
	}
	d.size = ns
}

// flip inverts the byte at off < size, storing it if it was in a hole.
func (d *fileData) flip(off int64) {
	no := off / blockSize
	lo := int(off - no*blockSize)
	d.span(no, lo+1)[lo] ^= 0xFF
}
