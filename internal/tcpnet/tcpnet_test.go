package tcpnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func TestRoundTripOverTCP(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return append([]byte("echo:"), req...), simnet.Cost(42), nil
	})

	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	resp, cost, err := cli.Call("client", srv.Addr(), "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:ping" {
		t.Fatalf("resp = %q", resp)
	}
	if cost < simnet.Cost(42) {
		t.Fatalf("cost %v lost the remote processing component", cost)
	}
}

func TestLocalDispatchSkipsSocket(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, simnet.Cost(7), nil
	})
	resp, cost, err := srv.Call(srv.Addr(), srv.Addr(), "echo", []byte("x"))
	if err != nil || string(resp) != "x" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	if cost != simnet.Cost(7) {
		t.Fatalf("local cost = %v, want handler cost only", cost)
	}
}

func TestHandlerErrorCrossesWire(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "fail", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return nil, 0, errors.New("handler exploded")
	})
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	_, _, err = cli.Call("client", srv.Addr(), "fail", nil)
	if err == nil || err.Error() != "handler exploded" {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownServiceAndDeadPeer(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()

	if _, _, err := cli.Call("client", srv.Addr(), "ghost", nil); !errors.Is(err, simnet.ErrNoSuchService) {
		t.Fatalf("unknown service err = %v", err)
	}
	addr := srv.Addr()
	srv.Close()
	if _, _, err := cli.Call("client", addr, "echo", nil); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("dead peer err = %v", err)
	}
}

func TestConcurrentCallers(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, 0, nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := Dialer(simnet.Addr(fmt.Sprintf("c%d", g)), simnet.LAN100)
			defer cli.Close()
			payload := bytes.Repeat([]byte{byte(g)}, 1000)
			for i := 0; i < 40; i++ {
				resp, _, err := cli.Call(cli.Addr(), srv.Addr(), "echo", payload)
				if err != nil || !bytes.Equal(resp, payload) {
					t.Errorf("g%d i%d: err=%v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLargePayload(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, 0, nil
	})
	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	payload := bytes.Repeat([]byte{0xab}, 4<<20)
	resp, _, err := cli.Call("client", srv.Addr(), "echo", payload)
	if err != nil || !bytes.Equal(resp, payload) {
		t.Fatalf("4MiB round trip failed: %v", err)
	}
}

// TestKoshaClusterOverTCP runs a full three-node Kosha deployment over real
// TCP sockets — the multi-process topology cmd/koshad provides, collapsed
// into one test process.
func TestKoshaClusterOverTCP(t *testing.T) {
	state := uint64(99)
	var nodes []*core.Node
	var nets []*Net
	for i := 0; i < 3; i++ {
		tn, err := Listen("127.0.0.1:0", simnet.LAN100)
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		nets = append(nets, tn)
		nd := core.NewNode(tn.Addr(), id.Rand128(&state), tn, core.Config{Replicas: 1})
		nd.AttachCtl()
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nd.Join(boot); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	for round := 0; round < 3; round++ {
		for _, nd := range nodes {
			nd.Overlay().Stabilize()
		}
	}
	for _, nd := range nodes {
		nd.SyncReplicas()
	}

	// Direct mount I/O across TCP nodes.
	m := nodes[0].NewMount()
	if _, err := m.WriteFile("/wan/hello.txt", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	data, _, err := nodes[2].NewMount().ReadFile("/wan/hello.txt")
	if err != nil || string(data) != "over tcp" {
		t.Fatalf("read %q err=%v", data, err)
	}

	// External koshactl client against a remote daemon.
	cli := Dialer("ctl-client", simnet.LAN100)
	defer cli.Close()
	ctl := &core.CtlClient{Net: cli, From: cli.Addr(), To: nodes[1].Addr()}
	if _, err := ctl.WriteFile("/wan/ctl.txt", []byte("from koshactl")); err != nil {
		t.Fatal(err)
	}
	got, _, err := ctl.ReadFile("/wan/ctl.txt")
	if err != nil || string(got) != "from koshactl" {
		t.Fatalf("ctl read %q err=%v", got, err)
	}
	ents, _, err := ctl.List("/wan")
	if err != nil || len(ents) != 2 {
		t.Fatalf("ctl list %v err=%v", ents, err)
	}
	st, _, err := ctl.Status()
	if err != nil || st.NodeID == "" {
		t.Fatalf("ctl status %+v err=%v", st, err)
	}
	if _, err := ctl.RemoveAll("/wan"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctl.Stat("/wan"); err == nil {
		t.Fatal("stat of removed dir should fail")
	}
}

// TestStalePooledConnRedials covers the pool-staleness path: a peer that
// closed an idle pooled connection (restart, keepalive timeout) must not
// surface as unreachable when a fresh dial would succeed. The test warms
// the pool, kills the pooled socket out from under the client, and expects
// the next call to transparently evict, redial, and succeed.
func TestStalePooledConnRedials(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(srv.Addr(), "echo", func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return req, simnet.Cost(1), nil
	})

	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	if _, _, err := cli.Call("client", srv.Addr(), "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Kill the pooled socket the way a restarted peer would: the cached
	// conn object survives in the pool but its transport is dead.
	cli.mu.Lock()
	pooled := cli.conns[srv.Addr()]
	cli.mu.Unlock()
	if pooled == nil {
		t.Fatal("no pooled connection after first call")
	}
	pooled.c.Close()

	resp, _, err := cli.Call("client", srv.Addr(), "echo", []byte("after"))
	if err != nil {
		t.Fatalf("call after pooled-conn death: %v", err)
	}
	if string(resp) != "after" {
		t.Fatalf("resp = %q", resp)
	}

	// The dead conn must have been evicted, not resurrected.
	cli.mu.Lock()
	repooled := cli.conns[srv.Addr()]
	cli.mu.Unlock()
	if repooled == pooled {
		t.Fatal("stale connection still pooled")
	}
}

// TestFreshDialFailureIsUnreachable ensures the redial loop does not spin:
// an IO failure on a connection that was just dialed reports unreachability
// immediately.
func TestFreshDialFailureIsUnreachable(t *testing.T) {
	// A listener that accepts and instantly closes: dials succeed but the
	// first exchange always fails, so every attempt is on a "fresh" conn.
	ln, err := Listen("127.0.0.1:0", simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close() // nothing is listening anymore

	cli := Dialer("client", simnet.LAN100)
	defer cli.Close()
	if _, _, err := cli.Call("client", addr, "echo", []byte("x")); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

// TestFrameLayoutUnchanged pins the framing: a header plus a body written
// by vectored write must be byte-for-byte the length-prefixed frame holding
// the header fields and the body as an XDR opaque.
func TestFrameLayoutUnchanged(t *testing.T) {
	for n := 0; n <= 9; n++ {
		body := bytes.Repeat([]byte{0xab}, n)
		hdr := wire.NewEncoder(0)
		hdr.PutUint32(0)
		hdr.PutString("10.0.0.1:7001")
		hdr.PutString("nfs")
		hdr.PutUint64(1)
		var got bytes.Buffer
		if err := writeOpaqueFrame(&got, hdr, body); err != nil {
			t.Fatal(err)
		}

		inner := wire.NewEncoder(0)
		inner.PutString("10.0.0.1:7001")
		inner.PutString("nfs")
		inner.PutUint64(1)
		inner.PutOpaque(body)
		want := wire.NewEncoder(0)
		want.PutUint32(uint32(inner.Len()))
		want.PutFixedOpaque(inner.Bytes())
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: frame %x, want %x", n, got.Bytes(), want.Bytes())
		}
		frame, err := readFrame(&got)
		if err != nil || !bytes.Equal(frame, inner.Bytes()) {
			t.Fatalf("n=%d: read back %x, err %v", n, frame, err)
		}
	}
}
