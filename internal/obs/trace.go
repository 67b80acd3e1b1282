package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceBuf is the default number of operations a node's tracer
// retains.
const DefaultTraceBuf = 256

// DefaultSlowBuf is the capacity of the slow-op flight recorder: operations
// exceeding the SLO threshold are copied here so a burst of fast chatter
// cannot evict the interesting outliers from observation.
const DefaultSlowBuf = 64

// spanRingFactor sizes the server-span ring relative to the op ring: one
// traced op can fan out to several server spans (route hops, the serving
// RPC, K mirrors), so they need proportionally more room.
const spanRingFactor = 4

// SpanHop names a client-side record of one overlay routing step.
const SpanHop = "hop"

// SpanRecord is the one record shape of a trace: a node of the causal tree
// (Parent -> Span) of one operation, the trace named by (Hi, Lo). Three
// kinds of record share it:
//
//   - the root, Parent 0: one client operation on the node that ran it. Name
//     is the op, Node the originating node, DurNS the op's total, and the
//     root alone carries Path, ServedBy, Replicas and Failovers;
//   - a client-side child of the root, recorded by the originating node and
//     with From empty: a timed stage ("route", "apply", Node the node it
//     concerned) or an overlay hop (Name SpanHop, Node the address
//     contacted, NodeID its nodeId, Prefix the digits it shares with the
//     key);
//   - a server span, recorded by the transport on the node that served an
//     RPC (From the caller), so every service (nfs, kosha, pastry, ctl) gets
//     spans without per-handler instrumentation.
//
// It has no slice fields: a copy of a record is a plain value copy.
type SpanRecord struct {
	Hi     uint64 `json:"hi"`
	Lo     uint64 `json:"lo"`
	Parent uint64 `json:"parent"`
	Span   uint64 `json:"span"`
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	From   string `json:"from,omitempty"`
	Node   string `json:"node"`
	DurNS  int64  `json:"dur_ns"`
	Err    string `json:"err,omitempty"`

	ServedBy  string `json:"served_by,omitempty"` // node that served the op's final RPC
	Replicas  int    `json:"replicas,omitempty"`  // replica fan-out of the op's final apply
	Failovers int    `json:"failovers,omitempty"` // transparent failover retries

	NodeID string `json:"node_id,omitempty"`
	Prefix int    `json:"prefix,omitempty"`
}

// Op is one client operation while it runs: its root span and the
// client-side spans recorded beneath it, published together by
// Tracer.Finish. Tracer.Start returns nil when tracing is off; Child and Ctx
// are nil-safe, so instrumented paths pay one nil check.
type Op struct {
	Root SpanRecord
	kids []SpanRecord // immutable once published
}

// Child records a client-side span (a stage or a hop) beneath the root,
// filling in its trace id, parent and span id.
func (o *Op) Child(rec SpanRecord) {
	if o == nil {
		return
	}
	rec.Hi, rec.Lo, rec.Parent = o.Root.Hi, o.Root.Lo, o.Root.Span
	rec.Span = mix64(o.Root.Span + uint64(len(o.kids)) + 1)
	o.kids = append(o.kids, rec)
}

// Ctx returns the propagation context for RPCs issued under the op: its
// trace id parented at the root span. A nil op yields the zero context,
// which transports treat as "do not record".
func (o *Op) Ctx() TraceContext {
	if o == nil {
		return TraceContext{}
	}
	return TraceContext{Hi: o.Root.Hi, Lo: o.Root.Lo, Span: o.Root.Span}
}

// Tracer hands out ops and keeps three rings: the most recent finished ops,
// the server spans this node recorded, and the slow-op flight recorder. A
// zero-capacity tracer is disabled and Start returns nil.
type Tracer struct {
	idState atomic.Uint64 // splitmix64 state behind trace/span ids
	slowNS  atomic.Int64  // SLO threshold; 0 disables the flight recorder

	mu    sync.Mutex
	ops   ring[Op]
	spans ring[SpanRecord]
	slow  ring[Op]
}

// NewTracer returns a tracer retaining up to capacity ops; capacity <= 0
// disables tracing.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		return &Tracer{}
	}
	return &Tracer{
		ops:   newRing[Op](capacity),
		spans: newRing[SpanRecord](capacity * spanRingFactor),
		slow:  newRing[Op](DefaultSlowBuf),
	}
}

// SeedIDs seeds the deterministic generator behind trace and span ids. Nodes
// seed with a per-node derivation of the run seed, so ids are unique across
// the cluster yet identical between replays of the same schedule.
func (t *Tracer) SeedIDs(seed uint64) {
	if t == nil {
		return
	}
	t.idState.Store(seed)
}

// rand64 advances the seeded splitmix64 stream. Never returns 0 so a valid
// trace id is always distinguishable from the zero ("no trace") context.
func (t *Tracer) rand64() uint64 {
	return mix64(t.idState.Add(0x9e3779b97f4a7c15))
}

// rand3 derives three id words (trace hi/lo + root span) from ONE advance of
// the stream: Start runs on every client operation, often from many
// goroutines at once, and a single atomic RMW on the shared state keeps the
// contention there no worse than a plain sequence counter.
func (t *Tracer) rand3() (a, b, c uint64) {
	base := t.idState.Add(0x9e3779b97f4a7c15)
	return mix64(base), mix64(base ^ 0x94d049bb133111eb), mix64(base ^ 0xbf58476d1ce4e5b9)
}

// mix64 is the splitmix64 finalizer, zero-guarded.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// NextSpanID hands out a span id for a server-side span; called by the
// transport before it invokes the handler so nested calls can be parented
// under the not-yet-recorded span. Nil-safe.
func (t *Tracer) NextSpanID() uint64 {
	if t == nil {
		return 0
	}
	return t.rand64()
}

// SetSlowThreshold arms the slow-op flight recorder: finished ops whose
// total meets or exceeds ns are copied into a separate ring that op chatter
// never evicts. ns <= 0 disarms it.
func (t *Tracer) SetSlowThreshold(ns int64) {
	if t == nil {
		return
	}
	t.slowNS.Store(ns)
}

// Enabled reports whether the tracer retains ops; instrumentation can skip
// building trace labels when it does not.
func (t *Tracer) Enabled() bool { return t != nil && t.ops.size > 0 }

// Start begins tracing one operation, or returns nil if disabled.
func (t *Tracer) Start(op, path, node string) *Op {
	if !t.Enabled() {
		return nil
	}
	hi, lo, span := t.rand3()
	return &Op{Root: SpanRecord{Hi: hi, Lo: lo, Span: span, Name: op, Path: path, Node: node}}
}

// Finish records the op's total and error and publishes it, with its
// client-side spans, into the op ring (and the flight recorder when slow).
func (t *Tracer) Finish(o *Op, total time.Duration, err error) {
	if t == nil || o == nil {
		return
	}
	o.Root.DurNS = int64(total)
	if err != nil {
		o.Root.Err = err.Error()
	}
	slow := t.slowNS.Load()
	t.mu.Lock()
	t.ops.push(*o)
	if slow > 0 && o.Root.DurNS >= slow {
		t.slow.push(*o)
	}
	t.mu.Unlock()
}

// RecordSpan publishes one server span into the span ring.
func (t *Tracer) RecordSpan(rec SpanRecord) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.spans.push(rec)
	t.mu.Unlock()
}

// Recent returns the records of up to n of the most recent ops, newest op
// first, each root followed by its client-side spans. n <= 0 means all
// retained ops.
func (t *Tracer) Recent(n int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return flatten(t.ops.newest(n, nil))
}

// Slow returns the flight recorder's records in Recent's shape.
func (t *Tracer) Slow(n int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return flatten(t.slow.newest(n, nil))
}

// SpansFor returns every retained record of trace (hi, lo): the op's own
// records when it began on this node (from the op ring or the flight
// recorder, so a flight-recorded op is found after the op ring evicted it),
// then the server spans this node recorded for it, newest first.
func (t *Tracer) SpansFor(hi, lo uint64) []SpanRecord {
	if t == nil {
		return nil
	}
	ofTrace := func(o *Op) bool { return o.Root.Hi == hi && o.Root.Lo == lo }
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := t.ops.newest(1, ofTrace)
	if len(ops) == 0 {
		ops = t.slow.newest(1, ofTrace)
	}
	return append(flatten(ops), t.spans.newest(0, func(r *SpanRecord) bool {
		return r.Hi == hi && r.Lo == lo
	})...)
}

// flatten lists each op's records in turn: its root, then its client-side
// spans in the order they were recorded.
func flatten(ops []Op) []SpanRecord {
	var out []SpanRecord
	for i := range ops {
		out = append(append(out, ops[i].Root), ops[i].kids...)
	}
	return out
}
