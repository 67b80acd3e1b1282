package obs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{30 * 24 * time.Hour, HistBuckets - 1}, // overflow bucket
	}
	for _, c := range cases {
		if got := bucketFor(int64(c.d)); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 0; i < HistBuckets; i++ {
		if got := bucketFor(int64(BucketUpper(i))); got != i && i < HistBuckets-1 {
			t.Errorf("bucketFor(BucketUpper(%d)) = %d", i, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations spread over two decades; Quantile returns the bucket
	// upper bound, so check rank ordering rather than exact values.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * 10 * time.Microsecond) // 10µs..1ms
	}
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.MaxNS != int64(time.Millisecond) {
		t.Fatalf("max = %v, want 1ms", time.Duration(s.MaxNS))
	}
	p50, p95, p99 := s.Quantile(50), s.Quantile(95), s.Quantile(99)
	if p50 > p95 || p95 > p99 {
		t.Fatalf("quantiles not monotonic: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// p50 of 10µs..1ms uniform is ~500µs; bucket upper bound can at most
	// double that.
	if p50 < 500*time.Microsecond || p50 > time.Millisecond {
		t.Errorf("p50 = %v, want in [500µs, 1ms]", p50)
	}
	if p99 > time.Duration(s.MaxNS) {
		t.Errorf("p99 = %v exceeds max %v", p99, time.Duration(s.MaxNS))
	}
	if got := s.Mean(); got <= 0 {
		t.Errorf("mean = %v, want > 0", got)
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Observe(5 * time.Microsecond)
		b.Observe(3 * time.Millisecond)
	}
	sa, sb := a.snapshot(), b.snapshot()
	sa.merge(sb)
	if sa.Count != 20 {
		t.Fatalf("merged count = %d, want 20", sa.Count)
	}
	if sa.MaxNS != int64(3*time.Millisecond) {
		t.Errorf("merged max = %v, want 3ms", time.Duration(sa.MaxNS))
	}
	wantSum := int64(10*5*time.Microsecond + 10*3*time.Millisecond)
	if sa.SumNS != wantSum {
		t.Errorf("merged sum = %d, want %d", sa.SumNS, wantSum)
	}
	var total uint64
	for _, c := range sa.Buckets {
		total += c
	}
	if total != 20 {
		t.Errorf("merged bucket total = %d, want 20", total)
	}
}

func TestRegistryResetInPlace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	h := r.Histogram("h")
	g := r.Gauge("g")
	c.Add(7)
	g.Set(-3)
	h.Observe(time.Millisecond)
	r.Reset()
	// The same pointers must still be live and zeroed — Reset never removes
	// entries, which is what makes cached metric pointers safe.
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 {
		t.Fatalf("reset left values: c=%d g=%d h=%d", c.Load(), g.Load(), h.Count())
	}
	if r.Counter("x") != c || r.Histogram("h") != h || r.Gauge("g") != g {
		t.Fatal("reset replaced metric pointers")
	}
	c.Add(1)
	if r.Snapshot().Counters["x"] != 1 {
		t.Fatal("cached pointer disconnected from registry after reset")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Add(1)
				r.Observe(fmt.Sprintf("h%d", i%2), time.Duration(j)*time.Microsecond)
				if j%100 == 0 {
					r.Reset()
				}
				_ = r.Snapshot()
			}
		}(i)
	}
	wg.Wait()
}

func TestSnapshotMergeAndMeanRatio(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("route.count").Add(2)
	r1.Counter("route.hops").Add(3)
	r2.Counter("route.count").Add(2)
	r2.Counter("route.hops").Add(5)
	r1.Observe("op.LOOKUP", time.Millisecond)
	r2.Observe("op.LOOKUP", 2*time.Millisecond)
	r2.Observe("op.READ", time.Microsecond)

	var agg Snapshot
	agg.Merge(r1.Snapshot())
	agg.Merge(r2.Snapshot())
	if got := agg.MeanRatio("route.hops", "route.count"); got != 2.0 {
		t.Errorf("mean route hops = %v, want 2.0", got)
	}
	if agg.Hists["op.LOOKUP"].Count != 2 {
		t.Errorf("merged LOOKUP count = %d, want 2", agg.Hists["op.LOOKUP"].Count)
	}
	names := agg.HistNames()
	if len(names) != 2 || names[0] != "op.LOOKUP" || names[1] != "op.READ" {
		t.Errorf("HistNames = %v", names)
	}
	if got := agg.MeanRatio("nope", "also-nope"); got != 0 {
		t.Errorf("MeanRatio on missing counters = %v, want 0", got)
	}
}

func TestTracerDisabledAndNilSafety(t *testing.T) {
	tr := NewTracer(0)
	if tr.Enabled() {
		t.Fatal("zero-capacity tracer reports enabled")
	}
	op := tr.Start("READ", "/x", "node00")
	if op != nil {
		t.Fatal("disabled tracer returned an op")
	}
	// The op's methods must tolerate the nil op.
	op.Child(SpanRecord{Name: SpanHop, Node: "b", NodeID: "a", Prefix: 1})
	op.Child(SpanRecord{Name: "rpc", Node: "node01", DurNS: int64(time.Millisecond)})
	if op.Ctx().Valid() {
		t.Fatal("nil op yields a valid context")
	}
	tr.Finish(op, time.Millisecond, errors.New("boom"))
	tr.RecordSpan(SpanRecord{Hi: 1, Lo: 1, Span: 1})
	if got := tr.Recent(0); got != nil {
		t.Fatalf("disabled tracer retained ops: %v", got)
	}
	if got := tr.SpansFor(1, 1); got != nil {
		t.Fatalf("disabled tracer retained spans: %v", got)
	}
	var nilTracer *Tracer
	if nilTracer.Start("X", "/", "n") != nil || nilTracer.Recent(1) != nil ||
		nilTracer.Slow(1) != nil || nilTracer.SpansFor(1, 1) != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestEventLogCountsSurviveEviction(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Add(EvFailover, "node03", "x")
	}
	l.Add(EvResync, "node01", "")
	s := l.Snapshot(0)
	if s.Counts[EvFailover] != 10 || s.Counts[EvResync] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
	if len(s.Recent) != 4 {
		t.Fatalf("retained %d events, want 4", len(s.Recent))
	}
	if s.Recent[0].Kind != EvResync {
		t.Errorf("newest event kind = %s, want %s", s.Recent[0].Kind, EvResync)
	}
	var agg EventsSnapshot
	agg.Merge(s)
	agg.Merge(s)
	if agg.Counts[EvFailover] != 20 {
		t.Errorf("merged failover count = %d, want 20", agg.Counts[EvFailover])
	}
	var nilLog *EventLog
	nilLog.Add(EvJoin, "n", "")
	if nilLog.Count(EvJoin) != 0 {
		t.Fatal("nil event log not inert")
	}
}
