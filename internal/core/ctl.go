package core

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/localfs"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// CtlService is the administrative service every koshad exposes: path-based
// file operations executed through the node's own mount, so external tools
// (cmd/koshactl) can drive the virtual file system without joining the
// overlay themselves.
const CtlService = "koshactl"

// ctl procedure numbers.
const (
	ctlRead = iota + 1
	ctlWrite
	ctlList
	ctlMkdirAll
	ctlRemoveAll
	ctlStat
	ctlStatfs
	ctlPeers
	ctlStats
	ctlTrace
	ctlTraceFrag
	ctlSamples
	ctlSlow
)

// ctlOnce lazily attaches the ctl handler's mount.
type ctlState struct {
	once  sync.Once
	mount *Mount
}

var ctlMounts sync.Map // *Node -> *ctlState

func (n *Node) ctlMount() *Mount {
	v, _ := ctlMounts.LoadOrStore(n, &ctlState{})
	st := v.(*ctlState)
	st.once.Do(func() { st.mount = n.NewMount() })
	return st.mount
}

// AttachCtl registers the koshactl service on this node.
func (n *Node) AttachCtl() {
	n.net.Register(n.addr, CtlService, n.handleCtl)
}

// ctlProcs is the koshactl administrative service, dispatched through the
// same typed table mechanism as the kosha replication service. Every ctl
// request carries a vpath argument right after the procedure number (""
// for node-level procedures); handlers decode it themselves.
var ctlProcs = serviceTable{
	ctlRead:      (*Node).ctlServeRead,
	ctlWrite:     (*Node).ctlServeWrite,
	ctlList:      (*Node).ctlServeList,
	ctlMkdirAll:  (*Node).ctlServeMkdirAll,
	ctlRemoveAll: (*Node).ctlServeRemoveAll,
	ctlStat:      (*Node).ctlServeStat,
	ctlStatfs:    (*Node).ctlServeStatfs,
	ctlPeers:     (*Node).ctlServePeers,
	ctlStats:     (*Node).ctlServeStats,
	ctlTrace:     (*Node).ctlServeTrace,
	ctlTraceFrag: (*Node).ctlServeTraceFrag,
	ctlSamples:   (*Node).ctlServeSamples,
	ctlSlow:      (*Node).ctlServeSlow,
}

func (n *Node) handleCtl(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
	return n.dispatch(ctlProcs, "koshactl", obs.TraceContext{}, from, req)
}

// ctlFail encodes the ctl failure convention: ok=false plus a message. The
// RPC itself still succeeds; the client surfaces the message as an error.
func ctlFail(e *wire.Encoder, err error) {
	e.Reset()
	e.PutBool(false)
	e.PutString(err.Error())
}

func (n *Node) ctlServeRead(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	data, cost, err := n.ctlMount().ReadFile(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	e.PutOpaque(data)
	return cost, nil
}

func (n *Node) ctlServeWrite(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	data := d.Opaque()
	if d.Err() != nil {
		return 0, d.Err()
	}
	cost, err := n.ctlMount().WriteFile(vpath, data)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	return cost, nil
}

func (n *Node) ctlServeList(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	m := n.ctlMount()
	vh, attr, cost, err := m.LookupPath(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	if attr.Type != localfs.TypeDir {
		ctlFail(e, fmt.Errorf("koshactl: %s is not a directory", vpath))
		return cost, nil
	}
	ents, c, err := m.Readdir(vh)
	cost = simnet.Seq(cost, c)
	m.forget(vh)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	e.PutUint32(uint32(len(ents)))
	for _, ent := range ents {
		e.PutString(ent.Name)
		e.PutUint32(uint32(ent.Type))
	}
	return cost, nil
}

func (n *Node) ctlServeMkdirAll(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	m := n.ctlMount()
	vh, cost, err := m.MkdirAll(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	m.forget(vh)
	e.PutBool(true)
	return cost, nil
}

func (n *Node) ctlServeRemoveAll(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	cost, err := n.ctlMount().RemoveAllPath(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	return cost, nil
}

func (n *Node) ctlServeStat(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	vpath := d.String()
	if d.Err() != nil {
		return 0, d.Err()
	}
	m := n.ctlMount()
	vh, attr, cost, err := m.LookupPath(vpath)
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	m.forget(vh)
	e.PutBool(true)
	e.PutUint32(uint32(attr.Type))
	e.PutUint32(attr.Mode)
	e.PutInt64(attr.Size)
	e.PutInt64(attr.Mtime.UnixNano())
	return cost, nil
}

func (n *Node) ctlServePeers(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused by node-level procedures
	if d.Err() != nil {
		return 0, d.Err()
	}
	e.PutBool(true)
	peers := n.overlay.Known()
	e.PutUint32(uint32(len(peers)))
	for _, p := range peers {
		e.PutString(string(p.Addr))
		e.PutString(p.ID.String())
	}
	return 0, nil
}

func (n *Node) ctlServeStatfs(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused by node-level procedures
	if d.Err() != nil {
		return 0, d.Err()
	}
	st, cost, err := n.store.Statfs()
	if err != nil {
		ctlFail(e, err)
		return cost, nil
	}
	e.PutBool(true)
	e.PutInt64(st.TotalBytes)
	e.PutInt64(st.UsedBytes)
	e.PutInt64(st.Files)
	e.PutString(n.overlay.Info().ID.String())
	e.PutUint32(uint32(len(n.overlay.Leaf())))
	return cost, nil
}

func (n *Node) ctlServeStats(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused by node-level procedures
	if d.Err() != nil {
		return 0, d.Err()
	}
	p := StatsPayload{
		Addr:   string(n.addr),
		NodeID: n.overlay.Info().ID.String(),
		Stats:  n.reg.Snapshot(),
		Events: n.events.Snapshot(32),
	}
	b, err := json.Marshal(p)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

func (n *Node) ctlServeTrace(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	return ctlServeRecords(d, e, n.tracer.Recent)
}

// ctlServeSlow returns the slow-op flight recorder: ops whose total exceeded
// Config.SlowOpNS, kept in a ring the normal eviction never touches.
func (n *Node) ctlServeSlow(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	return ctlServeRecords(d, e, n.tracer.Slow)
}

// ctlServeRecords answers a trace or slow request: the records of the count
// most recent ops the ring holds (each root followed by its client-side
// spans), newest op first. A count beyond the ring returns the whole ring.
func ctlServeRecords(d *wire.Decoder, e *wire.Encoder, recent func(n int) []obs.SpanRecord) (simnet.Cost, error) {
	_ = d.String() // vpath, unused
	count := int(d.Uint32())
	if d.Err() != nil {
		return 0, d.Err()
	}
	recs := recent(count)
	if recs == nil {
		recs = []obs.SpanRecord{}
	}
	b, err := json.Marshal(recs)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

// ctlServeTraceFrag returns this node's fragment of one distributed trace:
// every record it retains under the 128-bit trace id, the op's own root and
// client-side spans included when the op began here. koshactl collects
// fragments from all live nodes and reassembles the causal tree.
func (n *Node) ctlServeTraceFrag(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused
	hi := d.Uint64()
	lo := d.Uint64()
	if d.Err() != nil {
		return 0, d.Err()
	}
	p := TraceFragPayload{Node: string(n.addr), Spans: n.tracer.SpansFor(hi, lo)}
	if p.Spans == nil {
		p.Spans = []obs.SpanRecord{}
	}
	b, err := json.Marshal(p)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

// ctlServeSamples returns the node's retained time-series samples, oldest
// first; empty until the node's sampler has been started (koshad's
// -sampleevery flag or koshabench's -sample).
func (n *Node) ctlServeSamples(ctx obs.TraceContext, from simnet.Addr, d *wire.Decoder, e *wire.Encoder) (simnet.Cost, error) {
	_ = d.String() // vpath, unused
	count := int(d.Uint32())
	if d.Err() != nil {
		return 0, d.Err()
	}
	samples := n.sampler.Recent(count)
	if samples == nil {
		samples = []obs.Sample{}
	}
	b, err := json.Marshal(samples)
	if err != nil {
		ctlFail(e, err)
		return 0, nil
	}
	e.PutBool(true)
	e.PutOpaque(b)
	return 0, nil
}

// TraceFragPayload is one node's contribution to a distributed trace: every
// record the node retains under the trace id.
type TraceFragPayload struct {
	Node  string           `json:"node"`
	Spans []obs.SpanRecord `json:"spans"`
}

// StatsPayload is the JSON document ctlStats returns: one node's metrics
// registry snapshot plus its overlay-health event log.
type StatsPayload struct {
	Addr   string             `json:"addr"`
	NodeID string             `json:"node_id"`
	Stats  obs.Snapshot       `json:"stats"`
	Events obs.EventsSnapshot `json:"events"`
}

// CtlClient drives a remote koshad's ctl service.
type CtlClient struct {
	Net  simnet.Caller
	From simnet.Addr
	To   simnet.Addr
}

func (c *CtlClient) call(proc uint32, vpath string, extra func(*wire.Encoder)) (*wire.Decoder, simnet.Cost, error) {
	e := wire.NewEncoder(256)
	e.PutUint32(proc)
	e.PutString(vpath)
	if extra != nil {
		extra(e)
	}
	resp, cost, err := c.Net.Call(c.From, c.To, CtlService, e.Bytes())
	if err != nil {
		return nil, cost, err
	}
	d := wire.NewDecoder(resp)
	if ok := d.Bool(); !ok {
		msg := d.String()
		if d.Err() != nil {
			return nil, cost, d.Err()
		}
		return nil, cost, fmt.Errorf("koshactl: %s", msg)
	}
	return d, cost, nil
}

// ReadFile fetches a whole file.
func (c *CtlClient) ReadFile(vpath string) ([]byte, simnet.Cost, error) {
	d, cost, err := c.call(ctlRead, vpath, nil)
	if err != nil {
		return nil, cost, err
	}
	return d.Opaque(), cost, d.Err()
}

// WriteFile stores a whole file, creating ancestors.
func (c *CtlClient) WriteFile(vpath string, data []byte) (simnet.Cost, error) {
	_, cost, err := c.call(ctlWrite, vpath, func(e *wire.Encoder) { e.PutOpaque(data) })
	return cost, err
}

// List returns a directory listing.
func (c *CtlClient) List(vpath string) ([]DirEntry, simnet.Cost, error) {
	d, cost, err := c.call(ctlList, vpath, nil)
	if err != nil {
		return nil, cost, err
	}
	out := getCtlDirEntries(d)
	return out, cost, d.Err()
}

// getCtlDirEntries decodes a listing reply: a counted vector of (name,
// type), at least 8 bytes each. The count only bounds the loop; the
// pre-allocation is capped by the bytes left and decoding stops at the
// first error.
func getCtlDirEntries(d *wire.Decoder) []DirEntry {
	n := d.ArrayLen()
	out := make([]DirEntry, 0, d.PreallocCap(n, 8))
	for i := 0; i < n; i++ {
		ent := DirEntry{Name: d.String(), Type: localfs.FileType(d.Uint32())}
		if d.Err() != nil {
			break
		}
		out = append(out, ent)
	}
	return out
}

// MkdirAll creates a directory path.
func (c *CtlClient) MkdirAll(vpath string) (simnet.Cost, error) {
	_, cost, err := c.call(ctlMkdirAll, vpath, nil)
	return cost, err
}

// RemoveAll removes a subtree.
func (c *CtlClient) RemoveAll(vpath string) (simnet.Cost, error) {
	_, cost, err := c.call(ctlRemoveAll, vpath, nil)
	return cost, err
}

// StatResult carries ctlStat's reply.
type StatResult struct {
	Type localfs.FileType
	Mode uint32
	Size int64
}

// Stat fetches entry attributes.
func (c *CtlClient) Stat(vpath string) (StatResult, simnet.Cost, error) {
	d, cost, err := c.call(ctlStat, vpath, nil)
	if err != nil {
		return StatResult{}, cost, err
	}
	var st StatResult
	st.Type = localfs.FileType(d.Uint32())
	st.Mode = d.Uint32()
	st.Size = d.Int64()
	return st, cost, d.Err()
}

// NodeStatus carries ctlStatfs's reply.
type NodeStatus struct {
	TotalBytes int64
	UsedBytes  int64
	Files      int64
	NodeID     string
	LeafSize   int
}

// Peer identifies one overlay member as seen by a node.
type Peer struct {
	Addr   simnet.Addr
	NodeID string
}

// Peers lists the overlay members the remote node knows about, used by
// koshactl to crawl the cluster.
func (c *CtlClient) Peers() ([]Peer, simnet.Cost, error) {
	d, cost, err := c.call(ctlPeers, "", nil)
	if err != nil {
		return nil, cost, err
	}
	out := getPeers(d)
	return out, cost, d.Err()
}

// getPeers decodes a peers reply: a counted vector of (address, node id)
// strings, at least 8 bytes each, bounded like getCtlDirEntries.
func getPeers(d *wire.Decoder) []Peer {
	n := d.ArrayLen()
	out := make([]Peer, 0, d.PreallocCap(n, 8))
	for i := 0; i < n; i++ {
		p := Peer{Addr: simnet.Addr(d.String()), NodeID: d.String()}
		if d.Err() != nil {
			break
		}
		out = append(out, p)
	}
	return out
}

// Stats fetches the remote node's metrics registry and event-log snapshot.
func (c *CtlClient) Stats() (StatsPayload, simnet.Cost, error) {
	d, cost, err := c.call(ctlStats, "", nil)
	if err != nil {
		return StatsPayload{}, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return StatsPayload{}, cost, d.Err()
	}
	var p StatsPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return StatsPayload{}, cost, err
	}
	return p, cost, nil
}

// TraceDump fetches the records of up to count recent ops from the remote
// node's op ring, newest op first, each root followed by its client-side
// spans (count <= 0 means all retained).
func (c *CtlClient) TraceDump(count int) ([]obs.SpanRecord, simnet.Cost, error) {
	return c.records(ctlTrace, count)
}

// SlowDump fetches the flight recorder's ops in TraceDump's shape.
func (c *CtlClient) SlowDump(count int) ([]obs.SpanRecord, simnet.Cost, error) {
	return c.records(ctlSlow, count)
}

func (c *CtlClient) records(proc uint32, count int) ([]obs.SpanRecord, simnet.Cost, error) {
	if count < 0 {
		count = 0
	}
	d, cost, err := c.call(proc, "", func(e *wire.Encoder) { e.PutUint32(uint32(count)) })
	if err != nil {
		return nil, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	var recs []obs.SpanRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, cost, err
	}
	return recs, cost, nil
}

// TraceFrag fetches one node's fragment of the distributed trace (hi, lo).
func (c *CtlClient) TraceFrag(hi, lo uint64) (TraceFragPayload, simnet.Cost, error) {
	d, cost, err := c.call(ctlTraceFrag, "", func(e *wire.Encoder) {
		e.PutUint64(hi)
		e.PutUint64(lo)
	})
	if err != nil {
		return TraceFragPayload{}, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return TraceFragPayload{}, cost, d.Err()
	}
	var p TraceFragPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return TraceFragPayload{}, cost, err
	}
	return p, cost, nil
}

// Samples fetches up to count retained time-series samples, oldest first
// (count <= 0 means all retained).
func (c *CtlClient) Samples(count int) ([]obs.Sample, simnet.Cost, error) {
	if count < 0 {
		count = 0
	}
	d, cost, err := c.call(ctlSamples, "", func(e *wire.Encoder) { e.PutUint32(uint32(count)) })
	if err != nil {
		return nil, cost, err
	}
	raw := d.Opaque()
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	var samples []obs.Sample
	if err := json.Unmarshal(raw, &samples); err != nil {
		return nil, cost, err
	}
	return samples, cost, nil
}

// Status reports the remote node's store occupancy and overlay identity.
func (c *CtlClient) Status() (NodeStatus, simnet.Cost, error) {
	d, cost, err := c.call(ctlStatfs, "", nil)
	if err != nil {
		return NodeStatus{}, cost, err
	}
	var st NodeStatus
	st.TotalBytes = d.Int64()
	st.UsedBytes = d.Int64()
	st.Files = d.Int64()
	st.NodeID = d.String()
	st.LeafSize = int(d.Uint32())
	return st, cost, d.Err()
}
