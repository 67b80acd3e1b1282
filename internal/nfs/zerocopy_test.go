package nfs

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestDRCReplayIntactAfterLaterCalls checks the give rule for replies: the
// duplicate-request cache keeps reply bytes, so no later call, pooled
// request encoder or caller scribbling on a reply it was given may change
// what a replay returns.
func TestDRCReplayIntactAfterLaterCalls(t *testing.T) {
	net, srv, c := rig(t, 0)
	e := wire.NewEncoder(64)
	e.PutUint32(uint32(ProcCreate))
	e.PutUint64(1 << 40) // an xid the client itself never issues
	putHandle(e, srv.Root())
	e.PutString("replayed.txt")
	e.PutUint32(0o644)
	e.PutBool(true)
	req := e.Bytes()

	first, _, err := srv.Handle("cli", req)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), first...)
	fh := getHandle(wire.NewDecoder(saved[4:]))

	// Later traffic, duplicated so every mutation also takes the replay
	// path: writes through pooled encoders, and reads whose replies the
	// caller owns and overwrites.
	net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
		return simnet.LinkFault{Dup: true}
	})
	for i := 0; i < 16; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 4096+i)
		if _, _, err := c.Write("srv", fh, 0, payload); err != nil {
			t.Fatal(err)
		}
		data, _, _, err := c.Read("srv", fh, 0, len(payload))
		if err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("read %d: err %v", i, err)
		}
		for j := range data {
			data[j] = 0xff
		}
	}

	again, _, err := srv.Handle("cli", req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, saved) || !bytes.Equal(first, saved) {
		t.Fatalf("DRC replay changed:\n first %x\n again %x\n saved %x", first, again, saved)
	}
}

// TestReadReplyIsAView checks that READ hands out a view of the reply frame
// rather than a copy, and that the view cannot grow into the frame.
func TestReadReplyIsAView(t *testing.T) {
	_, srv, c := rig(t, 0)
	fh, _, _, err := c.Create("srv", srv.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789"), 3277)
	if _, _, err := c.Write("srv", fh, 0, payload); err != nil {
		t.Fatal(err)
	}
	data, eof, _, err := c.Read("srv", fh, 0, 1<<20)
	if err != nil || !eof || !bytes.Equal(data, payload) {
		t.Fatalf("read: eof %v err %v equal %v", eof, err, bytes.Equal(data, payload))
	}
	if cap(data) != len(data) {
		t.Fatalf("read view has cap %d > len %d: appends would write into the frame", cap(data), len(data))
	}
	win, eof, _, err := c.ReadStream("srv", fh, 4, 1000, 40)
	if err != nil || !eof || !bytes.Equal(win, payload[4:]) {
		t.Fatalf("readstream: eof %v err %v equal %v", eof, err, bytes.Equal(win, payload[4:]))
	}
}

// TestWriteSpansHostileCount is the regression for trusted array lengths: a
// frame claiming wire.MaxItems spans and carrying none must fail after a
// bounded amount of work and allocation, whether decoded directly or as a
// WRITEBATCH request.
func TestWriteSpansHostileCount(t *testing.T) {
	spans := []byte{0, 0x10, 0, 0} // count = wire.MaxItems, then nothing
	perDecode := allocBytesPerRun(200, func() {
		d := wire.NewDecoder(spans)
		if got := GetWriteSpans(d); got != nil || d.Err() == nil {
			t.Fatalf("hostile span count decoded to %d spans, err %v", len(got), d.Err())
		}
	})
	if limit := 16 * len(spans); perDecode > float64(limit) {
		t.Fatalf("decoding a %d-byte span vector allocates %.0f bytes, want <= %d", len(spans), perDecode, limit)
	}

	_, srv, _ := rig(t, 0)
	e := wire.NewEncoder(64)
	e.PutUint32(uint32(ProcWriteBatch))
	e.PutUint64(7)
	putHandle(e, srv.Root())
	e.PutUint32(wire.MaxItems)
	e.PutInt64(0) // one span's offset, then the frame ends
	req := e.Bytes()
	perReq := allocBytesPerRun(200, func() {
		resp, _, _ := srv.Handle("cli", req)
		if st := Status(wire.NewDecoder(resp).Uint32()); st != ErrInval {
			t.Fatalf("hostile WRITEBATCH answered %v, want %v", st, ErrInval)
		}
	})
	if limit := 16 * len(req); perReq > float64(limit) {
		t.Fatalf("serving a %d-byte hostile WRITEBATCH allocates %.0f bytes, want <= %d", len(req), perReq, limit)
	}
}

// TestReaddirHostileCounts feeds the READDIR and READDIRPLUS reply decoders
// a frame that claims wire.MaxItems entries and then ends: each must fail
// without pre-allocating for the claimed count or looping through it.
func TestReaddirHostileCounts(t *testing.T) {
	frame := []byte{0, 0x10, 0, 0} // count = wire.MaxItems, then nothing
	decoders := map[string]func() (int, error){
		"readdir":     func() (int, error) { d := wire.NewDecoder(frame); return len(getDirEntries(d)), d.Err() },
		"readdirplus": func() (int, error) { d := wire.NewDecoder(frame); return len(getDirEntriesPlus(d)), d.Err() },
	}
	for name, decode := range decoders {
		t.Run(name, func(t *testing.T) {
			perDecode := allocBytesPerRun(200, func() {
				if n, err := decode(); n != 0 || err == nil {
					t.Fatalf("hostile count decoded %d entries, err %v", n, err)
				}
			})
			if limit := 16 * len(frame); perDecode > float64(limit) {
				t.Fatalf("decoding a %d-byte hostile frame allocates %.0f bytes, want <= %d", len(frame), perDecode, limit)
			}
		})
	}
}

// allocBytesPerRun reports the average heap bytes one call of f allocates.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
