// Package tcpnet is the multi-process transport: the same request/response
// service surface as internal/simnet's in-process network, carried over
// real TCP connections. It lets the Kosha daemon (cmd/koshad) run one node
// per OS process on one box or across machines, with node addresses that
// are literally their host:port strings.
//
// Simulated costs still flow end-to-end: a reply carries the remote
// handler's reported cost, and the caller adds the calibrated link-model
// cost for the message sizes, so benchmark numbers remain comparable to
// the in-process emulation regardless of real wire latency.
//
// Buffers follow the wire package's lend/give rule. A request is lent: the
// caller's bytes go to the socket as they are (a vectored write of the
// envelope header, the request and its padding), and the serving side lends
// the handler a view of the request inside the frame it just read. A reply
// is given: the caller receives a view of the reply inside the frame read
// for it, which nothing else references. No connection keeps a buffer of
// its own between exchanges.
//
// A request costs the serving node only what it sends: a frame is read
// into memory that grows with the bytes received, and a handler that
// panics answers its caller with an error (counted in
// "tcpnet.handler_panics") instead of ending the process.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// maxFrame bounds one request or response frame.
const maxFrame = 96 << 20

// frameStep is the largest frame read into one allocation sized from its
// header. A larger frame is read in doubling steps, so the memory a peer
// can make a node hold follows the bytes it actually sends, not the size
// it claims.
const frameStep = 64 << 10

// Net is a TCP-backed simnet.Transport. Handlers registered for the local
// address are served from the listener; calls to other addresses dial out.
type Net struct {
	Link    simnet.LinkModel
	Timeout time.Duration // dial/IO deadline; default 5s

	local simnet.Addr
	ln    net.Listener

	mu       sync.Mutex
	services map[string]simnet.HandlerCtx
	sink     simnet.SpanSink
	conns    map[simnet.Addr]*conn
	inbound  map[net.Conn]struct{}

	closed  chan struct{}
	wg      sync.WaitGroup
	onceOff sync.Once

	reg           *obs.Registry
	handlerPanics *obs.Counter // "tcpnet.handler_panics"
}

type conn struct {
	mu sync.Mutex
	c  net.Conn
}

// Listen starts a transport bound to listenAddr ("host:port"; port 0 picks
// a free port). The advertised node address is the listener's address.
func Listen(listenAddr string, link simnet.LinkModel) (*Net, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", listenAddr, err)
	}
	n := Dialer(simnet.Addr(ln.Addr().String()), link)
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Dialer returns a client-only transport (no listener) that originates
// calls from the given logical address, for tools like koshactl.
func Dialer(from simnet.Addr, link simnet.LinkModel) *Net {
	reg := obs.NewRegistry()
	return &Net{
		Link:          link,
		Timeout:       5 * time.Second,
		local:         from,
		services:      make(map[string]simnet.HandlerCtx),
		conns:         make(map[simnet.Addr]*conn),
		inbound:       make(map[net.Conn]struct{}),
		closed:        make(chan struct{}),
		reg:           reg,
		handlerPanics: reg.Counter("tcpnet.handler_panics"),
	}
}

// Registry exposes the transport's own counters ("tcpnet.handler_panics").
func (n *Net) Registry() *obs.Registry { return n.reg }

// Addr returns the transport's local (advertised) address.
func (n *Net) Addr() simnet.Addr { return n.local }

// Close shuts the listener and all pooled connections.
func (n *Net) Close() error {
	n.onceOff.Do(func() { close(n.closed) })
	if n.ln != nil {
		n.ln.Close()
	}
	n.mu.Lock()
	for _, c := range n.conns {
		c.c.Close()
	}
	n.conns = make(map[simnet.Addr]*conn)
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

// Register implements simnet.Transport. Only the local address can host
// services; registering for another address is a programming error.
func (n *Net) Register(addr simnet.Addr, service string, h simnet.Handler) {
	n.RegisterCtx(addr, service, func(_ obs.TraceContext, from simnet.Addr, req []byte) ([]byte, simnet.Cost, error) {
		return h(from, req)
	})
}

// RegisterCtx installs a context-aware service handler at the local address.
func (n *Net) RegisterCtx(addr simnet.Addr, service string, h simnet.HandlerCtx) {
	if addr != n.local {
		panic(fmt.Sprintf("tcpnet: cannot register %q for remote address %s (local %s)", service, addr, n.local))
	}
	n.mu.Lock()
	n.services[service] = h
	n.mu.Unlock()
}

// SetSpanSink installs the local node's span recorder (nil clears it).
func (n *Net) SetSpanSink(addr simnet.Addr, s simnet.SpanSink) {
	if addr != n.local {
		panic(fmt.Sprintf("tcpnet: cannot set span sink for remote address %s (local %s)", addr, n.local))
	}
	n.mu.Lock()
	n.sink = s
	n.mu.Unlock()
}

func (n *Net) handlerFor(service string) (simnet.HandlerCtx, simnet.SpanSink) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.services[service], n.sink
}

// serve dispatches one delivered request to the local handler, recording a
// server span when the envelope carries a trace context and a sink is
// installed. Shared by the loopback path and the listener.
func (n *Net) serve(ctx obs.TraceContext, from simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	h, sink := n.handlerFor(service)
	if h == nil {
		return nil, simnet.Cost(time.Second), fmt.Errorf("%w: %q on %s", simnet.ErrNoSuchService, service, n.local)
	}
	hctx := ctx
	var span uint64
	if ctx.Valid() && sink != nil {
		span = sink.NextSpanID()
		hctx = ctx.Child(span)
	}
	resp, cost, err := n.callHandler(h, hctx, from, service, req)
	if span != 0 {
		sink.RecordServerSpan(ctx, span, service, from, req, cost, err)
	}
	return resp, cost, err
}

// callHandler runs one handler, turning a panic into an error reply and a
// count in "tcpnet.handler_panics", so one bad request cannot take the
// node down. The handler's own state is whatever the panic left it in.
func (n *Net) callHandler(h simnet.HandlerCtx, ctx obs.TraceContext, from simnet.Addr, service string, req []byte) (resp []byte, cost simnet.Cost, err error) {
	defer func() {
		if p := recover(); p != nil {
			n.handlerPanics.Add(1)
			resp, cost, err = nil, 0, fmt.Errorf("tcpnet: %q handler on %s panicked: %v", service, n.local, p)
		}
	}()
	return h(ctx, from, req)
}

// Call implements simnet.Caller. Local calls dispatch directly (loopback);
// remote calls go over TCP. Cost composes the modeled link cost with the
// remote handler's reported processing cost.
func (n *Net) Call(from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	return n.CallCtx(obs.TraceContext{}, from, to, service, req)
}

// CallCtx implements simnet.CtxCaller: the trace context rides the request
// frame and is rehydrated by the serving side.
func (n *Net) CallCtx(ctx obs.TraceContext, from, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	if to == n.local {
		return n.serve(ctx, from, service, req)
	}

	var wireCost simnet.Cost
	wireCost = n.Link.MessageCost(len(req))
	resp, procCost, err := n.roundTrip(ctx, to, service, req)
	if err != nil {
		return nil, simnet.Cost(time.Second), err
	}
	wireCost = simnet.Seq(wireCost, n.Link.MessageCost(len(resp)))
	return resp, simnet.Seq(wireCost, procCost), nil
}

// getConn returns the pooled connection to a peer, dialing if none is
// cached. fresh reports whether the connection was just dialed: an IO error
// on a fresh connection is a real reachability problem, while one on a
// cached connection may just mean the peer closed it while idle.
func (n *Net) getConn(to simnet.Addr) (c *conn, fresh bool, err error) {
	n.mu.Lock()
	c = n.conns[to]
	n.mu.Unlock()
	if c != nil {
		return c, false, nil
	}
	raw, err := net.DialTimeout("tcp", string(to), n.Timeout)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %s -> %s: %v", simnet.ErrUnreachable, n.local, to, err)
	}
	c = &conn{c: raw}
	n.mu.Lock()
	if existing := n.conns[to]; existing != nil {
		n.mu.Unlock()
		raw.Close()
		return existing, false, nil
	}
	n.conns[to] = c
	n.mu.Unlock()
	return c, true, nil
}

func (n *Net) dropConn(to simnet.Addr, c *conn) {
	n.mu.Lock()
	if n.conns[to] == c {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	c.c.Close()
}

// roundTrip sends one framed request on the pooled connection and reads the
// response. One in-flight request per connection keeps framing trivial.
// A cached connection can have been closed by the peer while idle (server
// restart, keepalive timeout); an IO failure on one evicts it and redials
// once before the failure is reported as unreachability.
func (n *Net) roundTrip(ctx obs.TraceContext, to simnet.Addr, service string, req []byte) ([]byte, simnet.Cost, error) {
	var frame []byte
	for attempt := 0; ; attempt++ {
		c, fresh, err := n.getConn(to)
		if err != nil {
			return nil, 0, err
		}
		frame, err = n.exchange(c, ctx, service, req)
		if err != nil {
			n.dropConn(to, c)
			if !fresh && attempt == 0 {
				continue // stale pooled connection; retry on a fresh dial
			}
			return nil, 0, fmt.Errorf("%w: %s -> %s: %v", simnet.ErrUnreachable, n.local, to, err)
		}
		break
	}
	// The reply frame was read for this call alone, so the response is
	// handed out as a view of it.
	d := wire.NewDecoder(frame)
	ok := d.Bool()
	cost := simnet.Cost(d.Int64())
	if !ok {
		msg := d.String()
		if d.Err() != nil {
			return nil, cost, d.Err()
		}
		return nil, cost, decodeRemoteError(msg)
	}
	resp := d.OpaqueView()
	if d.Err() != nil {
		return nil, cost, d.Err()
	}
	return resp, cost, nil
}

// exchange performs one framed request/response on a connection. The trace
// context travels as three fixed words after the service name; the request
// itself is written from the caller's buffer, not copied into the frame.
func (n *Net) exchange(c *conn, ctx obs.TraceContext, service string, req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	hdr := wire.GetEncoder(96)
	defer wire.PutEncoder(hdr)
	hdr.PutUint32(0) // frame length, set below
	hdr.PutString(string(n.local))
	hdr.PutString(service)
	hdr.PutUint64(ctx.Hi)
	hdr.PutUint64(ctx.Lo)
	hdr.PutUint64(ctx.Span)

	c.c.SetDeadline(time.Now().Add(n.Timeout))
	if err := writeOpaqueFrame(c.c, hdr, req); err != nil {
		return nil, err
	}
	return readFrame(c.c)
}

// decodeRemoteError rehydrates sentinel errors that cross the wire as
// strings so errors.Is keeps working for failover decisions.
func decodeRemoteError(msg string) error {
	switch {
	case strings.Contains(msg, simnet.ErrNoSuchService.Error()):
		return fmt.Errorf("%w: %s", simnet.ErrNoSuchService, msg)
	case strings.Contains(msg, simnet.ErrUnreachable.Error()):
		return fmt.Errorf("%w: %s", simnet.ErrUnreachable, msg)
	default:
		return errors.New(msg)
	}
}

func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		raw, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			continue
		}
		n.mu.Lock()
		n.inbound[raw] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(raw)
	}
}

func (n *Net) serveConn(raw net.Conn) {
	defer n.wg.Done()
	defer func() {
		raw.Close()
		n.mu.Lock()
		delete(n.inbound, raw)
		n.mu.Unlock()
	}()
	for {
		raw.SetReadDeadline(time.Now().Add(10 * time.Minute))
		frame, err := readFrame(raw)
		if err != nil {
			return
		}
		// The handler is lent a view of the request inside the frame just
		// read. Frames are never reused, so no copy is needed.
		d := wire.NewDecoder(frame)
		from := simnet.Addr(d.String())
		service := d.String()
		ctx := obs.TraceContext{Hi: d.Uint64(), Lo: d.Uint64(), Span: d.Uint64()}
		req := d.OpaqueView()
		if d.Err() != nil {
			return
		}

		resp, cost, herr := n.serve(ctx, from, service, req)
		if herr != nil {
			resp = []byte(herr.Error()) // an XDR string encodes as an opaque
		}
		hdr := wire.GetEncoder(64)
		hdr.PutUint32(0) // frame length, set by the write
		hdr.PutBool(herr == nil)
		hdr.PutInt64(int64(cost))
		raw.SetWriteDeadline(time.Now().Add(n.Timeout))
		err = writeOpaqueFrame(raw, hdr, resp)
		wire.PutEncoder(hdr)
		if err != nil {
			return
		}
	}
}

var zeroPad [3]byte

// writeOpaqueFrame sends one frame holding hdr followed by body encoded as
// an XDR opaque, byte-for-byte what PutOpaque would produce, without
// copying body: the length word is appended to hdr and the body and its
// padding go out in the same vectored write. hdr's first word is a
// placeholder for the frame length, which writeOpaqueFrame fills in.
func writeOpaqueFrame(w io.Writer, hdr *wire.Encoder, body []byte) error {
	hdr.PutUint32(uint32(len(body)))
	pad := zeroPad[:(4-len(body)%4)%4]
	hdr.PutUint32At(0, uint32(hdr.Len()-4+len(body)+len(pad)))
	bufs := net.Buffers{hdr.Bytes(), body, pad}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one length-prefixed frame. A frame up to frameStep bytes
// is one allocation of its exact size; a larger one grows by doubling as
// its bytes arrive.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(hdr[:]))
	if size > maxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", size)
	}
	p := make([]byte, min(size, frameStep))
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	for len(p) < size {
		grown := make([]byte, min(2*len(p), size))
		copy(grown, p)
		if _, err := io.ReadFull(r, grown[len(p):]); err != nil {
			return nil, err
		}
		p = grown
	}
	return p, nil
}
