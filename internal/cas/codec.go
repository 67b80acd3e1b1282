package cas

import "repro/internal/wire"

// PutManifest appends a manifest as a counted array of (hash, len) pairs.
func PutManifest(e *wire.Encoder, m Manifest) {
	e.PutUint32(uint32(len(m)))
	for _, c := range m {
		e.PutDigest(c.Hash)
		e.PutUint32(c.Len)
	}
}

// GetManifest decodes a manifest written by PutManifest.
func GetManifest(d *wire.Decoder) Manifest {
	n := d.ArrayLen()
	if n == 0 || d.Err() != nil {
		return nil
	}
	m := make(Manifest, 0, n)
	for i := 0; i < n; i++ {
		h := d.Digest()
		l := d.Uint32()
		if d.Err() != nil {
			return nil
		}
		m = append(m, Chunk{Hash: h, Len: l})
	}
	return m
}

// PutHashes appends a counted array of chunk hashes (WANT lists).
func PutHashes(e *wire.Encoder, hs []Hash) {
	e.PutUint32(uint32(len(hs)))
	for _, h := range hs {
		e.PutDigest(h)
	}
}

// GetHashes decodes a hash list written by PutHashes.
func GetHashes(d *wire.Decoder) []Hash {
	n := d.ArrayLen()
	if n == 0 || d.Err() != nil {
		return nil
	}
	hs := make([]Hash, 0, d.PreallocCap(n, len(Hash{})))
	for i := 0; i < n; i++ {
		h := d.Digest()
		if d.Err() != nil {
			return nil
		}
		hs = append(hs, h)
	}
	return hs
}

// PutBools appends a counted bitmap (HAVE replies).
func PutBools(e *wire.Encoder, bs []bool) {
	e.PutUint32(uint32(len(bs)))
	for _, b := range bs {
		e.PutBool(b)
	}
}

// GetBools decodes a bitmap written by PutBools.
func GetBools(d *wire.Decoder) []bool {
	n := d.ArrayLen()
	if n == 0 || d.Err() != nil {
		return nil
	}
	bs := make([]bool, 0, d.PreallocCap(n, 4))
	for i := 0; i < n; i++ {
		b := d.Bool()
		if d.Err() != nil {
			return nil
		}
		bs = append(bs, b)
	}
	return bs
}
