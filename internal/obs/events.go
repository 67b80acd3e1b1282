package obs

import (
	"sync"
	"time"
)

// Overlay-health event kinds.
const (
	EvJoin       = "join"
	EvDeparture  = "departure"
	EvFailover   = "failover"
	EvResync     = "resync"
	EvCachePurge = "cache-purge"
	// Background-maintenance event kinds (internal/maint): a scrub-detected
	// divergence being repaired, and a rebalancer subtree migration.
	EvScrubRepair   = "scrub-repair"
	EvRebalanceMove = "rebalance-move"
)

// Counter names for RPC retry accounting, shared by the core retrier and the
// experiment harnesses that report them.
const (
	// CtrRetries counts transient-failure retransmissions the RPC retrier
	// issued (each backoff-then-retry is one).
	CtrRetries = "rpc.retries"
	// CtrGiveups counts calls that exhausted the retry budget and surfaced
	// ErrUnreachable to the caller (genuine node-death suspicion).
	CtrGiveups = "rpc.giveups"
)

// Event is one overlay-health occurrence: a leaf-set join or departure, a
// transparent failover, a replica resync, or a cache purge.
type Event struct {
	Seq    uint64    `json:"seq"`
	Kind   string    `json:"kind"`
	Node   string    `json:"node,omitempty"` // node the event concerns (joined/left/failed peer)
	Detail string    `json:"detail,omitempty"`
	At     time.Time `json:"at"`
}

// DefaultEventBuf is the default capacity of the per-node event ring buffer.
// Per-kind counts survive eviction, so the ring only bounds how much recent
// detail `koshactl stats` can show; it is kept small because every node in
// every simulated cluster pays for it up front.
const DefaultEventBuf = 128

// EventLog is a bounded ring of recent events plus running per-kind counts
// (the counts survive ring eviction so stats stay accurate).
type EventLog struct {
	mu     sync.Mutex
	seq    uint64
	ring   ring[Event]
	counts map[string]uint64
}

// NewEventLog returns a log retaining up to capacity events (<= 0 uses
// DefaultEventBuf).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventBuf
	}
	return &EventLog{
		ring:   newRing[Event](capacity),
		counts: make(map[string]uint64),
	}
}

// Add records an event.
func (l *EventLog) Add(kind, node, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	l.ring.push(Event{Seq: l.seq, Kind: kind, Node: node, Detail: detail, At: time.Now()})
	l.counts[kind]++
	l.mu.Unlock()
}

// Count returns how many events of kind have ever been recorded.
func (l *EventLog) Count(kind string) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[kind]
}

// EventsSnapshot is the JSON-serializable view of an EventLog.
type EventsSnapshot struct {
	Counts map[string]uint64 `json:"counts"`
	Recent []Event           `json:"recent,omitempty"`
}

// Snapshot returns per-kind totals plus up to n recent events, newest first
// (n <= 0 means all retained).
func (l *EventLog) Snapshot(n int) EventsSnapshot {
	if l == nil {
		return EventsSnapshot{Counts: map[string]uint64{}}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := EventsSnapshot{Counts: make(map[string]uint64, len(l.counts))}
	for k, v := range l.counts {
		s.Counts[k] = v
	}
	s.Recent = l.ring.newest(n, nil)
	return s
}

// Merge folds another snapshot's counts into this one (recent lists are not
// merged — cluster aggregation only needs the totals).
func (s *EventsSnapshot) Merge(o EventsSnapshot) {
	if s.Counts == nil {
		s.Counts = make(map[string]uint64)
	}
	for k, v := range o.Counts {
		s.Counts[k] += v
	}
}
