package obs

import (
	"fmt"
	"strconv"
)

// TraceContext is the propagation header that rides every RPC envelope: a
// 128-bit trace identifier (Hi, Lo) naming one end-to-end operation, and the
// span id of the caller-side stage that issued the RPC. A server receiving a
// context records its own span as a child of Span and hands a re-parented
// context to any nested calls it makes, so replica fan-out and overlay hops
// form a causal tree reassemblable from per-node fragments alone.
//
// The zero value means "no trace": transports skip span recording entirely,
// keeping untraced traffic (stabilization pings, maintenance chatter) free.
type TraceContext struct {
	Hi   uint64 `json:"hi"`
	Lo   uint64 `json:"lo"`
	Span uint64 `json:"span"`
}

// Valid reports whether the context names a real trace.
func (c TraceContext) Valid() bool { return c.Hi != 0 || c.Lo != 0 }

// Child returns the context a server hands to its own outgoing calls: same
// trace, re-parented under the server's span.
func (c TraceContext) Child(span uint64) TraceContext {
	return TraceContext{Hi: c.Hi, Lo: c.Lo, Span: span}
}

// TraceID formats the 128-bit trace id as 32 lowercase hex digits, the form
// koshactl trace -id accepts.
func (c TraceContext) TraceID() string { return FormatTraceID(c.Hi, c.Lo) }

// FormatTraceID renders a (hi, lo) pair as 32 hex digits.
func FormatTraceID(hi, lo uint64) string { return fmt.Sprintf("%016x%016x", hi, lo) }

// ParseTraceID parses the 32-hex-digit form back into (hi, lo). Shorter
// strings are accepted as a bare lo (leading zeros implied) so hand-typed
// ids from test logs still resolve.
func ParseTraceID(s string) (hi, lo uint64, err error) {
	if len(s) > 32 {
		return 0, 0, fmt.Errorf("obs: trace id %q longer than 32 hex digits", s)
	}
	if len(s) > 16 {
		hi, err = strconv.ParseUint(s[:len(s)-16], 16, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
		}
		s = s[len(s)-16:]
	}
	lo, err = strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return hi, lo, nil
}
