package wire

import (
	"bytes"
	"testing"
)

// FuzzDecoderNoPanic feeds arbitrary bytes through every decoder entry
// point: malformed input must produce errors, never panics or huge
// allocations.
func FuzzDecoderNoPanic(f *testing.F) {
	e := NewEncoder(64)
	e.PutUint32(7)
	e.PutString("seed")
	e.PutOpaque([]byte{1, 2, 3})
	e.PutStrings([]string{"a", "b"})
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		sink := int(d.Uint32())
		sink += len(d.String())
		sink += len(d.Opaque())
		if v := d.OpaqueView(); cap(v) != len(v) {
			t.Fatalf("OpaqueView cap %d > len %d", cap(v), len(v))
		}
		sink += d.PreallocCap(int(d.Uint32()), 4)
		sink += len(d.Strings())
		if d.Bool() {
			sink++
		}
		sink += int(d.Int64())
		_ = d.Float64()
		var fixed [8]byte
		d.FixedOpaque(fixed[:])
		sink += d.ArrayLen()
		_ = d.Done()
		_ = sink
	})
}

// FuzzRoundTrip checks that whatever the encoder produces, the decoder
// reads back verbatim.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(1), "hello", []byte{9, 9})
	f.Add(uint32(0), "", []byte{})
	f.Fuzz(func(t *testing.T, a uint32, s string, p []byte) {
		e := NewEncoder(64)
		e.PutUint32(a)
		e.PutString(s)
		e.PutOpaque(p)
		d := NewDecoder(e.Bytes())
		if d.Uint32() != a {
			t.Fatal("u32 mismatch")
		}
		if d.String() != s {
			t.Fatal("string mismatch")
		}
		if got := d.Opaque(); !bytes.Equal(got, p) && !(len(got) == 0 && len(p) == 0) {
			t.Fatal("opaque mismatch")
		}
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}

		// Opaque copies and OpaqueView aliases: flipping the frame's
		// payload bytes shows through the view only.
		buf := e.Bytes()
		dc := NewDecoder(buf)
		dc.Uint32()
		_ = dc.String()
		cp := dc.Opaque()
		dv := NewDecoder(buf)
		dv.Uint32()
		_ = dv.String()
		view := dv.OpaqueView()
		if err := dv.Done(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(view, p) || cap(view) != len(view) {
			t.Fatalf("view %x (cap %d), want %x", view, cap(view), p)
		}
		for i := range view {
			view[i] ^= 0xff
		}
		if !bytes.Equal(cp, p) {
			t.Fatal("Opaque result aliases the frame")
		}
		start := len(buf) - len(p) - (4-len(p)%4)%4
		for i := range p {
			if buf[start+i] != ^p[i] {
				t.Fatal("OpaqueView result does not alias the frame")
			}
		}
	})
}
