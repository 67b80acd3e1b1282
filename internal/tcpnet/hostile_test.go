package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// TestHandlerPanicIsolated checks that a panicking handler costs its caller
// an error, not the serving node its process, and that the listener goes on
// serving: over TCP and on the loopback path alike.
func TestHandlerPanicIsolated(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "boom", func(simnet.Addr, []byte) ([]byte, simnet.Cost, error) {
		var m map[string]int
		m["x"]++ // assignment to a nil map
		return nil, 0, nil
	})
	srv.Register(srv.Addr(), "echo", func(_ simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, 0, nil
	})
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()

	if _, _, err := cli.Call("client", srv.Addr(), "boom", []byte("x")); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("call into a panicking handler: err = %v, want a panic error", err)
	}
	resp, _, err := cli.Call("client", srv.Addr(), "echo", []byte("still here"))
	if err != nil || string(resp) != "still here" {
		t.Fatalf("next call: resp %q, err %v", resp, err)
	}
	if _, _, err := srv.Call(srv.Addr(), srv.Addr(), "boom", nil); err == nil {
		t.Fatal("loopback call into a panicking handler returned no error")
	}
	if got := srv.Registry().Counter("tcpnet.handler_panics").Load(); got != 2 {
		t.Fatalf("tcpnet.handler_panics = %d, want 2", got)
	}
}

// TestReadFrameBoundedByBytesReceived pins the frame-read bound: a header
// claiming the largest frame, followed by a close, costs the reader a step
// of memory, not the 96 MiB it claims.
func TestReadFrameBoundedByBytesReceived(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame read without error")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("reading a header that claims %d bytes allocated %d bytes, want <= 1 MiB", maxFrame, n)
	}
}

// TestReadFrameSizes reads frames on both sides of the step size and
// across several doublings, byte for byte.
func TestReadFrameSizes(t *testing.T) {
	for _, size := range []int{0, 1, frameStep - 1, frameStep, frameStep + 1, 5*frameStep + 3} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		frame := binary.BigEndian.AppendUint32(nil, uint32(size))
		got, err := readFrame(bytes.NewReader(append(frame, body...)))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d: read %d bytes, err %v", size, len(got), err)
		}
		if size > 0 {
			if _, err := readFrame(bytes.NewReader(append(frame, body[:size-1]...))); err == nil {
				t.Fatalf("size %d, one byte short: read without error", size)
			}
		}
	}
}

// TestOversizedClaimThenServe sends a raw header claiming the largest frame
// and hangs up; the listener drops that connection and serves the next
// caller.
func TestOversizedClaimThenServe(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(_ simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, 0, nil
	})
	raw, err := net.Dial("tcp", string(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	raw.Write(hdr[:])
	raw.Close()

	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	resp, _, err := cli.Call("client", srv.Addr(), "echo", []byte("ok"))
	if err != nil || string(resp) != "ok" {
		t.Fatalf("resp %q, err %v", resp, err)
	}
}
