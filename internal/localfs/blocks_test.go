package localfs

import (
	"bytes"
	"testing"
)

// fileModel is the reference the block store must agree with: the file as
// one flat byte slice, with every hole spelled out as zeros.
type fileModel []byte

func (m fileModel) read(off int64, count int) ([]byte, bool) {
	size := int64(len(m))
	if off >= size {
		return nil, true
	}
	end := min(off+int64(count), size)
	return m[off:end], end == size
}

func (m *fileModel) write(off int64, p []byte) {
	if end := off + int64(len(p)); end > int64(len(*m)) {
		*m = append(*m, make([]byte, end-int64(len(*m)))...)
	}
	copy((*m)[off:], p)
}

func (m *fileModel) truncate(n int64) {
	if n <= int64(len(*m)) {
		*m = (*m)[:n]
		return
	}
	*m = append(*m, make([]byte, n-int64(len(*m)))...)
}

// fuzzOffset maps a byte to an offset within a few bytes of a quarter-block
// mark in the first eight blocks, so block boundaries come up often.
func fuzzOffset(x byte) int64 {
	return max(0, int64(x>>3)*blockSize/4+int64(x&7)-4)
}

// fuzzPattern supplies write payloads: a byte sequence with a period of
// 251, so payloads written at different steps differ at every offset.
var fuzzPattern = func() []byte {
	p := make([]byte, 251+1<<16)
	for i := range p {
		p[i] = byte(i%251 + 1)
	}
	return p
}()

// runFileOps applies the operations encoded in ops, four bytes each, to a
// one-file store and to the flat model, and fails at the first difference
// in bytes read, EOF flag, size or Used.
func runFileOps(t *testing.T, ops []byte) {
	f := newFS(0)
	a := mustCreate(t, f, RootIno, "f")
	var m fileModel
	for step := 0; len(ops) >= 4; step++ {
		op, x, y, z := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		off := fuzzOffset(x)
		n := int(y)<<8 | int(z)
		switch op % 5 {
		case 0: // write
			k := step % 251
			p := fuzzPattern[k : k+n]
			if _, _, err := f.Write(a.Ino, off, p); err != nil {
				t.Fatalf("step %d: Write(%d, %d bytes): %v", step, off, n, err)
			}
			m.write(off, p)
		case 1: // truncate or extend
			size := off
			if _, _, err := f.Setattr(a.Ino, SetAttr{Size: &size}); err != nil {
				t.Fatalf("step %d: Setattr(size %d): %v", step, size, err)
			}
			m.truncate(size)
		case 2: // read, into a buffer that already holds a prefix when z is odd
			var dst []byte
			if z&1 == 1 {
				dst = append(make([]byte, 0, int(y)), "pre"...)
			}
			got, eof, _, err := f.ReadAppend(dst, a.Ino, off, n)
			if err != nil {
				t.Fatalf("step %d: Read(%d, %d): %v", step, off, n, err)
			}
			want, weof := m.read(off, n)
			if !bytes.Equal(got[:len(dst)], dst) || !bytes.Equal(got[len(dst):], want) || eof != weof {
				t.Fatalf("step %d: Read(%d, %d) = %d bytes eof %v, model %d bytes eof %v",
					step, off, n, len(got)-len(dst), eof, len(want), weof)
			}
		case 3: // silent corruption
			err := f.CorruptFile("/f", off)
			if len(m) == 0 {
				if err == nil {
					t.Fatalf("step %d: CorruptFile of an empty file succeeded", step)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: CorruptFile(%d): %v", step, off, err)
			}
			m[off%int64(len(m))] ^= 0xFF
		case 4: // truncating create
			if _, _, err := f.Create(RootIno, "f", 0o644, false); err != nil {
				t.Fatalf("step %d: Create: %v", step, err)
			}
			m = nil
		}
		attr, _, err := f.Getattr(a.Ino)
		if err != nil || attr.Size != int64(len(m)) || f.Used() != int64(len(m)) {
			t.Fatalf("step %d (op %d): size %d, used %d (err %v), model %d",
				step, op%5, attr.Size, f.Used(), err, len(m))
		}
	}
	got, err := f.ReadFile("/f")
	if err != nil || !bytes.Equal(got, m) {
		t.Fatalf("final contents differ from the model (%d bytes, %d in model, err %v)", len(got), len(m), err)
	}
}

// FuzzFileData checks the block store against a flat byte slice under
// random writes, truncations, extensions, reads and corruptions across
// block boundaries and holes. Plain go test runs the seed cases.
func FuzzFileData(f *testing.F) {
	seeds := [][]byte{
		// Two whole blocks written in order, read back across the seam.
		{0, 0, 0x80, 0, 0, 32, 0x80, 0, 2, 28, 0x10, 0},
		// A write past the end leaves a hole; read it and corrupt in it.
		{0, 100, 0, 50, 2, 0, 0xff, 0xff, 3, 40, 0, 0, 2, 36, 0, 16},
		// Extend by Setattr, write into the middle, truncate into a block,
		// write a byte just past the cut, extend again: the cut-off bytes
		// must read back as zeros.
		{1, 200, 0, 0, 0, 70, 0x90, 0, 1, 75, 0, 0, 0, 78, 0, 1, 1, 250, 0, 0, 2, 60, 0xff, 0xff},
		// Small appends that grow one block, then a truncating create.
		{0, 4, 0, 9, 0, 4, 0x20, 0, 0, 4, 0x30, 0, 4, 0, 0, 0, 2, 4, 1, 0},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(runFileOps)
}
