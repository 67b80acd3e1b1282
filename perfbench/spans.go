package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/simnet"
)

// maxKeptSpans caps the spans kept for the JSON dump. Aggregates (calls,
// self time, total time) cover every span; only the dump is truncated, and it
// says how many spans it dropped.
const maxKeptSpans = 200_000

// span is one timed call across a layer boundary. Name is the metric key of
// the boundary ("nfs.READ", "localfs.data", "core.write", ...); its layer is
// the part before the first dot. Parent indexes the dump (-1 for a root span
// or a parent that was not kept). Op is the client operation the span serves
// (0 outside client operations, e.g. maintenance).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

type frame struct {
	idx   int // index into spans, -1 when not kept
	name  string
	start time.Time
	child time.Duration
}

// recorder collects the traced run's spans. Work in the benchmark is one
// chain of calls at a time — one closed-loop client over synchronous
// transports, with maintenance run between client operations — so a stack of
// open spans gives every span its parent, even when a tcpnet handler runs on
// a server goroutine while its caller waits. A span's self time is its
// duration minus the durations of its direct children, whatever their layer.
type recorder struct {
	now func() time.Time

	mu      sync.Mutex
	active  bool
	t0      time.Time
	op      int64
	stack   []frame
	spans   []span
	dropped int64
	calls   map[string]int64
	counts  map[string]int64         // counters the layers add (bytes, messages)
	sims    map[string]float64       // simulated seconds by name
	self    map[string]time.Duration // self time by span name
	total   map[string]time.Duration // whole duration by span name
	rootDur time.Duration            // summed duration of root spans
}

func newRecorder() *recorder {
	return &recorder{
		now:    time.Now,
		calls:  map[string]int64{},
		counts: map[string]int64{},
		sims:   map[string]float64{},
		self:   map[string]time.Duration{},
		total:  map[string]time.Duration{},
	}
}

// start opens the measured window: spans are recorded from here until stop.
func (r *recorder) start() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.active = true
	r.t0 = r.now()
	r.mu.Unlock()
}

// resume reopens the window after stop without moving its origin.
func (r *recorder) resume() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.active = true
	r.mu.Unlock()
}

func (r *recorder) stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.active = false
	r.mu.Unlock()
}

// beginOp opens the span of one client operation and tags every span under
// it with a fresh op id.
func (r *recorder) beginOp(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	r.op++
	r.mu.Unlock()
	return r.begin(name)
}

// begin opens a span and reports whether it did; pass the result to end.
func (r *recorder) begin(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active {
		return false
	}
	t := r.now()
	idx := -1
	if len(r.spans) < maxKeptSpans {
		parent := -1
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].idx
		}
		idx = len(r.spans)
		r.spans = append(r.spans, span{Name: name, Start: int64(t.Sub(r.t0)), Parent: parent, Op: r.op})
	} else {
		r.dropped++
	}
	r.stack = append(r.stack, frame{idx: idx, name: name, start: t})
	return true
}

// end closes the innermost open span if the matching begin opened one.
func (r *recorder) end(opened bool) {
	if !opened {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.stack)
	f := r.stack[n-1]
	r.stack = r.stack[:n-1]
	t := r.now()
	d := t.Sub(f.start)
	if f.idx >= 0 {
		r.spans[f.idx].End = int64(t.Sub(r.t0))
	}
	r.calls[f.name]++
	r.total[f.name] += d
	r.self[f.name] += d - f.child
	if n > 1 {
		r.stack[n-2].child += d
	} else {
		r.rootDur += d
	}
}

// add bumps a named counter inside the window.
func (r *recorder) add(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.active {
		r.counts[name] += n
	}
	r.mu.Unlock()
}

// addSim adds simulated time to a named total inside the window.
func (r *recorder) addSim(name string, c simnet.Cost) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.active {
		r.sims[name] += c.Seconds()
	}
	r.mu.Unlock()
}

// selfByLayer sums self time per layer (the span-name prefix).
func (r *recorder) selfByLayer() map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, d := range r.self {
		out[layerOf(name)] += d
	}
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTable renders self time by layer over a window of the given wall time.
// The rows sum to the window: time outside every span is the harness's own
// (input generation, output checks, bookkeeping).
func (r *recorder) selfTable(workload string, window time.Duration) string {
	layers := r.selfByLayer()
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	var b strings.Builder
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(window) }
	b.WriteString("self time by layer, workload " + workload + ", traced window\n")
	for _, l := range names {
		b.WriteString(row(l, ms(layers[l]), pct(layers[l])))
	}
	harness := window - r.rootDur
	b.WriteString(row("harness", ms(harness), pct(harness)))
	b.WriteString(row("window", ms(window), 100))
	return b.String()
}

func row(name string, ms, pct float64) string {
	return fmt.Sprintf("%-10s %12.3f ms %7.2f %%\n", name, ms, pct)
}

// dump writes the kept spans as JSON.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body := struct {
		Spans   []span `json:"spans"`
		Dropped int64  `json:"dropped"`
	}{r.spans, r.dropped}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
