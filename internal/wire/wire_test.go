package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutUint32(0xdeadbeef)
	e.PutInt32(-7)
	e.PutUint64(0x0123456789abcdef)
	e.PutInt64(-1 << 62)
	e.PutBool(true)
	e.PutBool(false)
	e.PutFloat64(3.5)
	e.PutFloat64(math.Inf(-1))

	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 0xdeadbeef {
		t.Errorf("u32 = %x", v)
	}
	if v := d.Int32(); v != -7 {
		t.Errorf("i32 = %d", v)
	}
	if v := d.Uint64(); v != 0x0123456789abcdef {
		t.Errorf("u64 = %x", v)
	}
	if v := d.Int64(); v != -1<<62 {
		t.Errorf("i64 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool mismatch")
	}
	if v := d.Float64(); v != 3.5 {
		t.Errorf("f64 = %v", v)
	}
	if v := d.Float64(); !math.IsInf(v, -1) {
		t.Errorf("f64 inf = %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder(32)
		p := bytes.Repeat([]byte{0xab}, n)
		e.PutOpaque(p)
		if e.Len()%4 != 0 {
			t.Fatalf("opaque of %d bytes not 4-aligned: %d", n, e.Len())
		}
		d := NewDecoder(e.Bytes())
		got := d.Opaque()
		if !bytes.Equal(got, p) {
			t.Fatalf("opaque %d round trip: %v", n, got)
		}
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFixedOpaque(t *testing.T) {
	e := NewEncoder(16)
	e.PutFixedOpaque([]byte{1, 2, 3, 4, 5})
	e.PutUint32(9)
	d := NewDecoder(e.Bytes())
	var dst [5]byte
	d.FixedOpaque(dst[:])
	if dst != [5]byte{1, 2, 3, 4, 5} {
		t.Fatalf("fixed = %v", dst)
	}
	if d.Uint32() != 9 {
		t.Fatal("value after padded fixed opaque misaligned")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutString("")
	e.PutString("abc")
	e.PutString("héllo, wörld")
	d := NewDecoder(e.Bytes())
	if d.String() != "" || d.String() != "abc" || d.String() != "héllo, wörld" {
		t.Fatal("string round trip failed")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestStringsArray(t *testing.T) {
	ss := []string{"a", "", "directory name", "x/y/z"}
	e := NewEncoder(64)
	e.PutStrings(ss)
	d := NewDecoder(e.Bytes())
	got := d.Strings()
	if len(got) != len(ss) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range ss {
		if got[i] != ss[i] {
			t.Errorf("strings[%d] = %q", i, got[i])
		}
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if d.Uint32() != 0 {
		t.Error("short read should yield zero")
	}
	if d.Err() != ErrShort {
		t.Errorf("err = %v", d.Err())
	}
	// Further reads stay zero and do not panic.
	if d.Uint64() != 0 || d.String() != "" {
		t.Error("reads after error should yield zeros")
	}
	if d.Done() == nil {
		t.Error("Done should report the error")
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(MaxOpaque + 1)
	d := NewDecoder(e.Bytes())
	if d.Opaque() != nil || d.Err() != ErrTooLong {
		t.Errorf("oversized opaque accepted: %v", d.Err())
	}

	e.Reset()
	e.PutUint32(MaxItems + 1)
	d = NewDecoder(e.Bytes())
	if d.Strings() != nil || d.Err() != ErrTooLong {
		t.Errorf("oversized array accepted: %v", d.Err())
	}

	e.Reset()
	e.PutUint32(MaxItems + 1)
	d = NewDecoder(e.Bytes())
	if d.ArrayLen() != 0 || d.Err() != ErrTooLong {
		t.Errorf("oversized ArrayLen accepted: %v", d.Err())
	}
}

func TestTrailingGarbage(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(1)
	e.PutUint32(2)
	d := NewDecoder(e.Bytes())
	d.Uint32()
	if err := d.Done(); err == nil {
		t.Error("Done should reject trailing bytes")
	}
}

func TestDecoderDoesNotCopyInput(t *testing.T) {
	// Opaque must copy out, so mutating the source after decode is safe.
	e := NewEncoder(16)
	e.PutOpaque([]byte{1, 2, 3, 4})
	buf := append([]byte(nil), e.Bytes()...)
	d := NewDecoder(buf)
	got := d.Opaque()
	buf[4] = 0xff
	if got[0] != 1 {
		t.Fatal("Opaque must return a copy")
	}
}

func TestPropScalarsRoundTrip(t *testing.T) {
	f := func(a uint32, b int32, c uint64, e64 int64, bl bool, fl float64) bool {
		e := NewEncoder(64)
		e.PutUint32(a)
		e.PutInt32(b)
		e.PutUint64(c)
		e.PutInt64(e64)
		e.PutBool(bl)
		e.PutFloat64(fl)
		d := NewDecoder(e.Bytes())
		ok := d.Uint32() == a && d.Int32() == b && d.Uint64() == c &&
			d.Int64() == e64 && d.Bool() == bl
		g := d.Float64()
		if math.IsNaN(fl) {
			ok = ok && math.IsNaN(g)
		} else {
			ok = ok && g == fl
		}
		return ok && d.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropOpaqueStringsRoundTrip(t *testing.T) {
	f := func(p []byte, s string, ss []string) bool {
		e := NewEncoder(64)
		e.PutOpaque(p)
		e.PutString(s)
		e.PutStrings(ss)
		d := NewDecoder(e.Bytes())
		gp := d.Opaque()
		gs := d.String()
		gss := d.Strings()
		if !bytes.Equal(gp, p) && !(len(gp) == 0 && len(p) == 0) {
			return false
		}
		if gs != s {
			return false
		}
		if len(gss) != len(ss) {
			return false
		}
		for i := range ss {
			if gss[i] != ss[i] {
				return false
			}
		}
		return d.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropEncodedLengthAligned(t *testing.T) {
	f := func(p []byte, s string) bool {
		e := NewEncoder(32)
		e.PutOpaque(p)
		e.PutString(s)
		return e.Len()%4 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpaqueViewChecks(t *testing.T) {
	// Same limit and short-buffer checks as Opaque.
	d := NewDecoder([]byte{0xff, 0xff, 0xff, 0xff})
	if v := d.OpaqueView(); v != nil || d.Err() != ErrTooLong {
		t.Fatalf("oversized length: view %v err %v", v, d.Err())
	}
	d = NewDecoder([]byte{0, 0, 0, 8, 1, 2, 3})
	if v := d.OpaqueView(); v != nil || d.Err() != ErrShort {
		t.Fatalf("short body: view %v err %v", v, d.Err())
	}
	d = NewDecoder([]byte{0, 0, 0, 3, 1, 2, 3})
	if v := d.OpaqueView(); v != nil || d.Err() != ErrShort {
		t.Fatalf("missing padding: view %v err %v", v, d.Err())
	}
}

func TestPutOpaqueAppendMatchesPutOpaque(t *testing.T) {
	for n := 0; n <= 9; n++ {
		p := bytes.Repeat([]byte{0x5a}, n)
		want := NewEncoder(32)
		want.PutUint32(1)
		want.PutOpaque(p)
		got := NewEncoder(0)
		got.PutUint32(0)
		got.PutOpaqueAppend(func(buf []byte) []byte { return append(buf, p...) })
		got.PutUint32At(0, 1)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: %x, want %x", n, got.Bytes(), want.Bytes())
		}
	}
}

func TestPreallocCap(t *testing.T) {
	d := NewDecoder(make([]byte, 40))
	if got := d.PreallocCap(MaxItems, 12); got != 3 {
		t.Fatalf("PreallocCap(MaxItems, 12) over 40 bytes = %d, want 3", got)
	}
	if got := d.PreallocCap(2, 12); got != 2 {
		t.Fatalf("PreallocCap(2, 12) = %d, want 2", got)
	}
}

func TestEncoderPoolDropsLargeBuffers(t *testing.T) {
	e := GetEncoder(maxPooledCap + 1)
	if cap(e.Bytes()) < maxPooledCap+1 {
		t.Fatalf("GetEncoder ignored its capacity hint: cap %d", cap(e.Bytes()))
	}
	PutEncoder(e) // dropped, not pooled
	for i := 0; i < 100; i++ {
		e := GetEncoder(0)
		if cap(e.Bytes()) > maxPooledCap {
			t.Fatalf("pool kept a %d-byte buffer, cap is %d", cap(e.Bytes()), maxPooledCap)
		}
		if e.Len() != 0 {
			t.Fatalf("pooled encoder not reset: %d bytes", e.Len())
		}
		e.PutUint32(uint32(i))
		PutEncoder(e)
	}
}

func BenchmarkEncodeMixed(b *testing.B) {
	payload := bytes.Repeat([]byte{7}, 1024)
	e := NewEncoder(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutUint32(42)
		e.PutString("lookup")
		e.PutOpaque(payload)
	}
}

func BenchmarkDecodeMixed(b *testing.B) {
	payload := bytes.Repeat([]byte{7}, 1024)
	e := NewEncoder(2048)
	e.PutUint32(42)
	e.PutString("lookup")
	e.PutOpaque(payload)
	buf := e.Bytes()
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		d.Uint32()
		sink += len(d.String())
		sink += len(d.Opaque())
	}
	_ = sink
}

// TestDecoderResetEncoderDetach checks the reuse primitives a pooled
// codec pair relies on: Reset re-points a decoder and clears its error,
// Detach gives the encoded bytes away and leaves the encoder bufferless,
// and Grow makes room without disturbing what is already encoded.
func TestDecoderResetEncoderDetach(t *testing.T) {
	var d Decoder
	d.Reset([]byte{0, 0, 0, 7})
	if v := d.Uint32(); v != 7 || d.Err() != nil {
		t.Fatalf("decoded %d err %v", v, d.Err())
	}
	d.Uint32()
	if d.Err() == nil {
		t.Fatal("read past the end without an error")
	}
	d.Reset([]byte{0, 0, 0, 9})
	if v := d.Uint32(); v != 9 || d.Err() != nil {
		t.Fatalf("after Reset decoded %d err %v", v, d.Err())
	}

	var e Encoder
	e.Grow(16)
	if cap(e.Bytes()) < 16 {
		t.Fatalf("Grow(16) left cap %d", cap(e.Bytes()))
	}
	e.PutUint32(1)
	e.Grow(64)
	if cap(e.Bytes())-e.Len() < 64 || !bytes.Equal(e.Bytes(), []byte{0, 0, 0, 1}) {
		t.Fatalf("Grow(64) gave len %d cap %d bytes %v", e.Len(), cap(e.Bytes()), e.Bytes())
	}
	given := e.Detach()
	if !bytes.Equal(given, []byte{0, 0, 0, 1}) || e.Bytes() != nil {
		t.Fatalf("Detach gave %v and kept %v", given, e.Bytes())
	}
	e.Grow(8)
	e.PutUint32(2)
	if !bytes.Equal(given, []byte{0, 0, 0, 1}) {
		t.Fatalf("encoding after Detach changed the given bytes to %v", given)
	}
}
