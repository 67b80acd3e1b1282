package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// captureNet is a simnet transport that keeps a copy of every kosha-service
// request it carries, so tests can pin the exact bytes of the write path.
type captureNet struct {
	*simnet.Network
	mu     sync.Mutex
	frames [][]byte
}

func (c *captureNet) record(service string, req []byte) {
	if service != KoshaService {
		return
	}
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), req...))
	c.mu.Unlock()
}

func (c *captureNet) Call(from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	c.record(service, req)
	return c.Network.Call(from, to, service, req)
}

func (c *captureNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	c.record(service, req)
	return c.Network.CallCtx(ctx, from, to, service, req)
}

// take returns and clears the recorded kApply/kMirror frames.
func (c *captureNet) take() (apply, mirror [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.frames {
		switch wire.NewDecoder(f).Uint32() {
		case kApply:
			apply = append(apply, f)
		case kMirror:
			mirror = append(mirror, f)
		}
	}
	c.frames = nil
	return apply, mirror
}

// goldenOp is an FSOp with every field set, so its encoding covers the whole
// request layout.
func goldenOp() FSOp {
	mode := uint32(0o640)
	size := int64(4096)
	mtime := time.Unix(1700000000, 5)
	return FSOp{
		Kind:    FSWriteV,
		Path:    "/home/docs/a.txt",
		Path2:   "/home/docs/b.txt",
		Data:    []byte("golden payload"),
		Offset:  8192,
		Mode:    0o644,
		Excl:    true,
		Target:  "tgt",
		SetAttr: localfs.SetAttr{Mode: &mode, Size: &size, Mtime: &mtime},
		Prune:   true,
		Spans:   []nfs.WriteSpan{{Offset: 0, Data: []byte("abc")}, {Offset: 100, Data: []byte("defgh")}},
		Chunks:  []repl.ChunkRef{{Hash: [32]byte{1, 2, 3}, Len: 4096, Inline: true}, {Hash: [32]byte{9}, Len: 7}},
	}
}

var goldenTrack = Track{PN: "home", Root: "/home", Link: "/home", Ver: 7, Dead: true}

// The frames below are the encodings produced before requests moved to
// pooled encoders and the mirror fan-out started encoding once. The wire
// format is part of the protocol: every simulated cost and byte count is
// computed from these lengths.
const (
	goldenApplyHex = "" +
		"00000001e83249bd3ba79932e16fb1fb5100dafa00000004686f6d6500000005" +
		"2f686f6d65000000000000052f686f6d65000000000000000000000700000001" +
		"0000000c000000102f686f6d652f646f63732f612e747874000000102f686f6d" +
		"652f646f63732f622e7478740000000e676f6c64656e207061796c6f61640000" +
		"0000000000002000000001a400000001000000037467740000000019000001a0" +
		"000000000000100017979cfe362a000500000001000000020000000000000000" +
		"0000000361626300000000000000006400000005646566676800000000000002" +
		"0102030000000000000000000000000000000000000000000000000000000000" +
		"0000100000000001090000000000000000000000000000000000000000000000" +
		"0000000000000000000000070000000000000000"
	goldenMirrorHex = "" +
		"000000020000000000000000000000000000000000000004686f6d6500000005" +
		"2f686f6d65000000000000052f686f6d65000000000000000000000700000001" +
		"0000000c000000102f686f6d652f646f63732f612e747874000000102f686f6d" +
		"652f646f63732f622e7478740000000e676f6c64656e207061796c6f61640000" +
		"0000000000002000000001a400000001000000037467740000000019000001a0" +
		"000000000000100017979cfe362a000500000001000000020000000000000000" +
		"0000000361626300000000000000006400000005646566676800000000000002" +
		"0102030000000000000000000000000000000000000000000000000000000000" +
		"0000100000000001090000000000000000000000000000000000000000000000" +
		"0000000000000000000000070000000000000001"

	// One 13-byte WRITE at offset 5 through a three-node cluster (seed
	// 11, K=1): the frame the mount sends the primary and the frame the
	// primary fans out to its replica.
	liveApplyHex = "" +
		"00000001ec30adc79e734900430e4174cf0a36c200000006676f6c64656e0000" +
		"000000072f676f6c64656e000000000000000000000000000000000000000004" +
		"000000092f676f6c64656e2f66000000000000000000000d676f6c64656e2d62" +
		"7974657321000000000000000000000500000000000000000000000000000000" +
		"00000000000000000000000000000000"
	liveMirrorHex = "" +
		"000000020000000000000000000000000000000000000006676f6c64656e0000" +
		"000000072f676f6c64656e000000000000000000000000030000000000000004" +
		"000000092f676f6c64656e2f66000000000000000000000d676f6c64656e2d62" +
		"7974657321000000000000000000000500000000000000000000000000000000" +
		"00000000000000000000000000000000"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestApplyMirrorGoldenBytes pins the kApply and kMirror request frames for
// a fully populated FSOp at their established encoding.
func TestApplyMirrorGoldenBytes(t *testing.T) {
	op := goldenOp()
	e := encodeApplyReq(kApply, applyReq{Key: Key("home"), Track: goldenTrack, Op: op})
	if got, want := e.Bytes(), unhex(t, goldenApplyHex); !bytes.Equal(got, want) {
		t.Errorf("apply frame changed:\n got %x\nwant %x", got, want)
	}
	wire.PutEncoder(e)
	e = encodeApplyReq(kMirror, applyReq{Track: goldenTrack, Op: op, Primary: true})
	if got, want := e.Bytes(), unhex(t, goldenMirrorHex); !bytes.Equal(got, want) {
		t.Errorf("mirror frame changed:\n got %x\nwant %x", got, want)
	}
	wire.PutEncoder(e)

	// The frames still decode to the op they encode.
	d := wire.NewDecoder(unhex(t, goldenApplyHex))
	d.Uint32()
	r := decodeApplyReq(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if r.Key != Key("home") || r.Track != goldenTrack || !bytes.Equal(r.Op.Data, op.Data) ||
		len(r.Op.Spans) != 2 || !bytes.Equal(r.Op.Spans[1].Data, []byte("defgh")) ||
		len(r.Op.Chunks) != 2 || r.Op.Chunks[0] != op.Chunks[0] || *r.Op.SetAttr.Size != 4096 {
		t.Fatalf("golden apply frame decodes to %+v", r)
	}
}

// captureCluster is testCluster over a captureNet.
func captureCluster(t testing.TB, n int, seed uint64, cfg Config) (*captureNet, []*Node) {
	t.Helper()
	cn := &captureNet{Network: simnet.New(simnet.LAN100)}
	state := seed
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		addr := simnet.Addr(fmt.Sprintf("k%d", i))
		nodes[i] = NewNode(addr, id.Rand128(&state), cn, cfg)
		var boot simnet.Addr
		if i > 0 {
			boot = nodes[0].Addr()
		}
		if _, err := nodes[i].Join(boot); err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
	}
	stabilizeAll(nodes)
	return cn, nodes
}

// TestWritePathGoldenFrames pins the frames a real WRITE puts on the
// network: the mount's apply request and the primary's single mirror frame.
func TestWritePathGoldenFrames(t *testing.T) {
	cn, nodes := captureCluster(t, 3, 11, Config{Replicas: 1})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/golden")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	cn.take()
	if _, _, err := m.Write(fvh, 5, []byte("golden-bytes!")); err != nil {
		t.Fatal(err)
	}
	apply, mirror := cn.take()
	if len(apply) != 1 || len(mirror) != 1 {
		t.Fatalf("WRITE sent %d apply and %d mirror frames, want 1 and 1", len(apply), len(mirror))
	}
	if want := unhex(t, liveApplyHex); !bytes.Equal(apply[0], want) {
		t.Errorf("apply frame changed:\n got %x\nwant %x", apply[0], want)
	}
	if want := unhex(t, liveMirrorHex); !bytes.Equal(mirror[0], want) {
		t.Errorf("mirror frame changed:\n got %x\nwant %x", mirror[0], want)
	}
}

// holders returns the nodes holding a copy of phys: the primary (whose copy
// sits at phys itself) first, then the replicas.
func holders(nodes []*Node, phys string) (primary *Node, replicas []*Node) {
	for _, nd := range nodes {
		if _, err := nd.Store().LookupPath(phys); err == nil {
			primary = nd
		} else if _, err := nd.Store().LookupPath(RepPath(phys)); err == nil {
			replicas = append(replicas, nd)
		}
	}
	return primary, replicas
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return p
}

// TestWriteDoesNotAliasCallerOrPool checks the lend rule on the write path:
// once Mount.Write returns, neither the caller's payload nor the pooled
// request encoders it travelled in are referenced by any copy. Scribbling
// over both must leave the primary and every replica holding the written
// bytes.
func TestWriteDoesNotAliasCallerOrPool(t *testing.T) {
	_, nodes := testCluster(t, 8, 21, Config{Replicas: 2})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/alias")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	const size = 32 << 10
	payload := pattern(size, 1)
	want := append([]byte(nil), payload...)
	if _, _, err := m.Write(fvh, 0, payload); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xee
	}
	// Reuse the pooled encoders: directly, and through more writes to
	// another file that take them from the pool.
	for i := 0; i < 8; i++ {
		e := wire.GetEncoder(size + 512)
		e.PutOpaque(bytes.Repeat([]byte{0xdd}, size))
		wire.PutEncoder(e)
	}
	gvh, _, _, err := m.Create(dir, "g", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := m.Write(gvh, 0, pattern(size, byte(100+i))); err != nil {
			t.Fatal(err)
		}
	}

	primary, replicas := holders(nodes, "/alias/f")
	if primary == nil || len(replicas) != 2 {
		t.Fatalf("copies of /alias/f: primary %v, %d replicas; want a primary and 2 replicas", primary, len(replicas))
	}
	for _, nd := range append([]*Node{primary}, replicas...) {
		got, err := readCopy(nd, "/alias/f")
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("copy on %s does not hold the written bytes (err %v)", nd.Addr(), err)
		}
	}
	data, _, _, err := m.Read(fvh, 0, size)
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("read back through the mount: err %v, equal %v", err, bytes.Equal(data, want))
	}
}

// TestDuplicatedMirrorAppliesSameBytes duplicates every mirror the primary
// sends: the replica runs each mirror twice from one lent frame, and both
// runs must apply the bytes the client wrote.
func TestDuplicatedMirrorAppliesSameBytes(t *testing.T) {
	net, nodes := testCluster(t, 4, 5, Config{Replicas: 1})
	m := nodes[0].NewMount()
	dir, _, err := m.MkdirAll("/dup")
	if err != nil {
		t.Fatal(err)
	}
	fvh, _, _, err := m.Create(dir, "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	primary, replicas := holders(nodes, "/dup/f")
	if primary == nil || len(replicas) != 1 {
		t.Fatalf("copies of /dup/f: primary %v, %d replicas", primary, len(replicas))
	}
	net.SetFaults(func(from, to simnet.Addr, service string) simnet.LinkFault {
		return simnet.LinkFault{Dup: service == KoshaService && from == primary.Addr() && to == replicas[0].Addr()}
	})
	defer net.SetFaults(nil)
	for i := 0; i < 6; i++ {
		want := pattern(4096+i*1000, byte(i*31))
		if _, _, err := m.Write(fvh, 0, want); err != nil {
			t.Fatal(err)
		}
		for _, nd := range []*Node{primary, replicas[0]} {
			got, err := readCopy(nd, "/dup/f")
			if err != nil || !bytes.Equal(got[:len(want)], want) {
				t.Fatalf("write %d: copy on %s differs from the written bytes (err %v)", i, nd.Addr(), err)
			}
		}
	}
	if _, duped, _ := net.FaultStats(); duped == 0 {
		t.Fatal("no mirror was duplicated; the test exercised nothing")
	}
}

// TestGetFSOpHostileCounts feeds getFSOp a frame that claims wire.MaxItems
// chunk references and then ends: the decoder must fail without
// pre-allocating for the claimed count or looping through it.
func TestGetFSOpHostileCounts(t *testing.T) {
	e := wire.NewEncoder(128)
	putFSOp(e, FSOp{Kind: FSChunkWrite, Path: "/x"})
	frame := e.Bytes()
	frame = append(frame[:len(frame)-4], 0, 0x10, 0, 0) // chunk count = MaxItems
	perDecode := allocBytesPerRun(200, func() {
		d := wire.NewDecoder(frame)
		getFSOp(d)
		if d.Err() == nil {
			t.Fatal("hostile chunk count decoded without error")
		}
	})
	if limit := 16 * len(frame); perDecode > float64(limit) {
		t.Fatalf("decoding a %d-byte hostile frame allocates %.0f bytes, want <= %d", len(frame), perDecode, limit)
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
