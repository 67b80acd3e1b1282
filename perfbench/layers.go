package main

import (
	"encoding/binary"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/localfs"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// koshaProcs names the kosha service procedures by number (core/proto.go).
// Procedures 1-2 carry client mutations and belong to core; the rest are
// replica maintenance and belong to repl.
var koshaProcs = map[uint32]string{
	1:  "core.rpc.apply",
	2:  "core.rpc.mirror",
	3:  "repl.rpc.stat_tree",
	4:  "repl.rpc.untrack",
	5:  "repl.rpc.promote",
	6:  "repl.rpc.replicas",
	7:  "repl.rpc.tree_digest",
	8:  "repl.rpc.dir_digests",
	9:  "repl.rpc.chunk_manifest",
	10: "repl.rpc.chunk_fetch",
}

// procName names the server span of one request from its service and the
// request's first XDR word, the procedure number.
func procName(service string, req []byte) string {
	if len(req) < 4 {
		return service + ".short"
	}
	p := binary.BigEndian.Uint32(req)
	switch service {
	case nfs.Service:
		return "nfs." + nfs.Proc(p).String()
	case core.KoshaService:
		if name, ok := koshaProcs[p]; ok {
			return name
		}
		return "repl.rpc.proc" + strconv.FormatUint(uint64(p), 10)
	case pastry.Service:
		return "pastry.rpc." + pastry.ProcName(p)
	}
	return service + ".rpc"
}

// tracedNet wraps the transport handed to core.NewNode. Every call is a
// transport span; every delivered request is a server span named by procName,
// nested inside it, so transport time is a call's wall time minus its
// handler's. It also counts wire bytes the way simnet.Network does: the
// request always, the response when the call succeeds. With a nil recorder it
// only counts.
type tracedNet struct {
	inner simnet.CtxTransport
	rec   *recorder
	bytes *atomic.Int64

	span, messages, failures string // metric names, built once
}

// newTracedNet wraps inner; layer ("simnet" or "tcpnet") prefixes its
// metric names.
func newTracedNet(inner simnet.CtxTransport, rec *recorder, layer string, bytes *atomic.Int64) *tracedNet {
	return &tracedNet{
		inner: inner, rec: rec, bytes: bytes,
		span: layer + ".transport", messages: layer + ".messages", failures: layer + ".failures",
	}
}

func (t *tracedNet) count(req, resp []byte, err error) {
	n := int64(len(req))
	if err == nil {
		n += int64(len(resp))
	}
	t.bytes.Add(n)
	if t.rec == nil {
		return
	}
	t.rec.add(t.messages, 1)
	if err != nil {
		t.rec.add(t.failures, 1)
	}
}

func (t *tracedNet) Call(from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	opened := t.rec.begin(t.span)
	resp, cost, err := t.inner.Call(from, to, service, req)
	t.rec.end(opened)
	t.count(req, resp, err)
	return resp, cost, err
}

func (t *tracedNet) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	opened := t.rec.begin(t.span)
	resp, cost, err := t.inner.CallCtx(ctx, from, to, service, req)
	t.rec.end(opened)
	t.count(req, resp, err)
	return resp, cost, err
}

func (t *tracedNet) Register(addr simnet.Addr, service string, h simnet.Handler) {
	t.inner.Register(addr, service, func(from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		name := t.serverSpan(service, req)
		opened := t.rec.begin(name)
		resp, cost, err := h(from, req)
		t.rec.end(opened)
		t.noteServed(service, req, resp, cost)
		return resp, cost, err
	})
}

func (t *tracedNet) RegisterCtx(addr simnet.Addr, service string, h simnet.HandlerCtx) {
	t.inner.RegisterCtx(addr, service, func(ctx obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		name := t.serverSpan(service, req)
		opened := t.rec.begin(name)
		resp, cost, err := h(ctx, from, req)
		t.rec.end(opened)
		t.noteServed(service, req, resp, cost)
		return resp, cost, err
	})
}

func (t *tracedNet) serverSpan(service string, req []byte) string {
	if t.rec == nil {
		return ""
	}
	return procName(service, req)
}

// noteServed adds the NFS server's simulated time and bytes.
func (t *tracedNet) noteServed(service string, req, resp []byte, cost simnet.Cost) {
	if service != nfs.Service || t.rec == nil {
		return
	}
	t.rec.addSim("nfs", cost)
	t.rec.add("nfs.bytes", int64(len(req)+len(resp)))
}

func (t *tracedNet) SetSpanSink(addr simnet.Addr, s simnet.SpanSink) { t.inner.SetSpanSink(addr, s) }

// SetDown forwards crash injection to transports that support it, so
// core.Node.Fail works through the wrapper.
func (t *tracedNet) SetDown(addr simnet.Addr, down bool) {
	if d, ok := t.inner.(simnet.Downer); ok {
		d.SetDown(addr, down)
	}
}

// tracedStore wraps the localfs.FileSystem handed to core.NewNodeWithStore.
// Handle-based data calls are "localfs.data" spans, other handle-based calls
// "localfs.meta", and the path-based calls repl and maint use "localfs.path".
// It forwards localfs.MutationNotifier: merkle keeps its digest caches fresh
// through it, and a wrapper that hid it would leave them stale.
type tracedStore struct {
	fs  localfs.FileSystem
	rec *recorder
}

var _ localfs.MutationNotifier = (*tracedStore)(nil)

func (s *tracedStore) OnMutation(fn func(path string)) {
	if n, ok := s.fs.(localfs.MutationNotifier); ok {
		n.OnMutation(fn)
	}
}

func (s *tracedStore) meta() bool { return s.rec.begin("localfs.meta") }
func (s *tracedStore) path() bool { return s.rec.begin("localfs.path") }

func (s *tracedStore) Read(ino uint64, offset int64, count int) ([]byte, bool, simnet.Cost, error) {
	o := s.rec.begin("localfs.data")
	data, eof, c, err := s.fs.Read(ino, offset, count)
	s.rec.end(o)
	s.rec.add("localfs.read.calls", 1)
	s.rec.add("localfs.read.bytes", int64(len(data)))
	return data, eof, c, err
}

func (s *tracedStore) Write(ino uint64, offset int64, data []byte) (int, simnet.Cost, error) {
	o := s.rec.begin("localfs.data")
	n, c, err := s.fs.Write(ino, offset, data)
	s.rec.end(o)
	s.rec.add("localfs.write.calls", 1)
	s.rec.add("localfs.write.bytes", int64(n))
	return n, c, err
}

func (s *tracedStore) Getattr(ino uint64) (localfs.Attr, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Getattr(ino)
}

func (s *tracedStore) Setattr(ino uint64, sa localfs.SetAttr) (localfs.Attr, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Setattr(ino, sa)
}

func (s *tracedStore) Lookup(dirIno uint64, name string) (localfs.Attr, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Lookup(dirIno, name)
}

func (s *tracedStore) Create(dirIno uint64, name string, mode uint32, exclusive bool) (localfs.Attr, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Create(dirIno, name, mode, exclusive)
}

func (s *tracedStore) Mkdir(dirIno uint64, name string, mode uint32) (localfs.Attr, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Mkdir(dirIno, name, mode)
}

func (s *tracedStore) Symlink(dirIno uint64, name, target string) (localfs.Attr, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Symlink(dirIno, name, target)
}

func (s *tracedStore) Readlink(ino uint64) (string, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Readlink(ino)
}

func (s *tracedStore) Remove(dirIno uint64, name string) (simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Remove(dirIno, name)
}

func (s *tracedStore) Rmdir(dirIno uint64, name string) (simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Rmdir(dirIno, name)
}

func (s *tracedStore) Rename(srcDir uint64, srcName string, dstDir uint64, dstName string) (simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Rename(srcDir, srcName, dstDir, dstName)
}

func (s *tracedStore) Readdir(ino uint64) ([]localfs.DirEntry, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Readdir(ino)
}

func (s *tracedStore) Statfs() (localfs.FSStat, simnet.Cost, error) {
	o := s.meta()
	defer s.rec.end(o)
	return s.fs.Statfs()
}

func (s *tracedStore) LookupPath(p string) (localfs.Attr, error) {
	o := s.path()
	defer s.rec.end(o)
	return s.fs.LookupPath(p)
}

func (s *tracedStore) MkdirAll(p string) (localfs.Attr, error) {
	o := s.path()
	defer s.rec.end(o)
	return s.fs.MkdirAll(p)
}

func (s *tracedStore) RemoveAll(p string) error {
	o := s.path()
	defer s.rec.end(o)
	return s.fs.RemoveAll(p)
}

func (s *tracedStore) Walk(p string, fn localfs.WalkFunc) error {
	o := s.path()
	defer s.rec.end(o)
	return s.fs.Walk(p, fn)
}

func (s *tracedStore) ReadFile(p string) ([]byte, error) {
	o := s.path()
	defer s.rec.end(o)
	return s.fs.ReadFile(p)
}

func (s *tracedStore) WriteFile(p string, data []byte) error {
	o := s.path()
	defer s.rec.end(o)
	return s.fs.WriteFile(p, data)
}

func (s *tracedStore) Capacity() int64      { return s.fs.Capacity() }
func (s *tracedStore) Used() int64          { return s.fs.Used() }
func (s *tracedStore) Utilization() float64 { return s.fs.Utilization() }
func (s *tracedStore) NumFiles() int64      { return s.fs.NumFiles() }
