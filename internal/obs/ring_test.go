package obs

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"
)

// TestRings drives every ring in the package through one table. Each case
// pushes numbered values through its owner's public API and reads the
// numbers back newest first; every ring must fill, wrap at its size, keep
// newest-first order, treat n <= 0 as "all", and never return more than it
// holds however large n is.
func TestRings(t *testing.T) {
	type instance struct {
		size int
		push func(i int)
		// read returns up to n retained values newest first.
		read func(n int) []int
		// uncounted marks a read that ignores n and returns them all.
		uncounted bool
	}
	cases := []struct {
		name string
		new  func(t *testing.T) instance
	}{
		{"trace-ops", func(t *testing.T) instance {
			tr := NewTracer(4)
			return instance{
				size: 4,
				push: func(i int) {
					op := tr.Start("LOOKUP", fmt.Sprintf("/p%d", i), "node00")
					op.Child(SpanRecord{Name: SpanHop, Node: "node01", NodeID: "ab12", Prefix: 2})
					op.Root.ServedBy = "node01"
					tr.Finish(op, time.Duration(i)*time.Millisecond, nil)
				},
				read: func(n int) []int {
					recs := tr.Recent(n)
					var ids []int
					for i := 0; i < len(recs); i += 2 {
						root, hop := recs[i], recs[i+1]
						if root.Parent != 0 || root.ServedBy != "node01" || root.Node != "node00" {
							t.Fatalf("root lost fields: %+v", root)
						}
						if hop.Parent != root.Span || hop.Hi != root.Hi || hop.Lo != root.Lo ||
							hop.Name != SpanHop || hop.Node != "node01" || hop.NodeID != "ab12" || hop.Prefix != 2 {
							t.Fatalf("hop record not a child of its root: %+v under %+v", hop, root)
						}
						id, _ := strconv.Atoi(root.Path[2:])
						if root.DurNS != int64(id)*int64(time.Millisecond) {
							t.Fatalf("root total %d, want %d ms", root.DurNS, id)
						}
						ids = append(ids, id)
					}
					return ids
				},
			}
		}},
		{"trace-spans", func(t *testing.T) instance {
			// A span ring of 2 * spanRingFactor slots, shared half and half
			// with a second trace that SpansFor(1, 1) must filter out.
			tr := NewTracer(2)
			return instance{
				size:      spanRingFactor,
				uncounted: true, // SpansFor takes no count
				push: func(i int) {
					tr.RecordSpan(SpanRecord{Hi: 1, Lo: 1, Span: uint64(i), Name: "a"})
					tr.RecordSpan(SpanRecord{Hi: 2, Lo: 2, Span: uint64(i + 100), Name: "b"})
				},
				read: func(int) []int {
					var ids []int
					for _, r := range tr.SpansFor(1, 1) {
						ids = append(ids, int(r.Span))
					}
					if got := tr.SpansFor(3, 3); len(got) != 0 {
						t.Fatalf("unknown trace returned spans: %v", got)
					}
					return ids
				},
			}
		}},
		{"trace-slow", func(t *testing.T) instance {
			tr := NewTracer(1)
			tr.SetSlowThreshold(1)
			return instance{
				size: DefaultSlowBuf,
				push: func(i int) { tr.Finish(tr.Start("WRITE", "/s", "n0"), time.Duration(i), nil) },
				read: func(n int) []int {
					var ids []int
					for _, r := range tr.Slow(n) {
						ids = append(ids, int(r.DurNS))
					}
					return ids
				},
			}
		}},
		{"events", func(t *testing.T) instance {
			l := NewEventLog(4)
			return instance{
				size: 4,
				push: func(i int) { l.Add(EvFailover, "node03", strconv.Itoa(i)) },
				read: func(n int) []int {
					var ids []int
					for _, ev := range l.Snapshot(n).Recent {
						id, _ := strconv.Atoi(ev.Detail)
						ids = append(ids, id)
					}
					return ids
				},
			}
		}},
		{"samples", func(t *testing.T) instance {
			reg := NewRegistry()
			s := NewSampler(reg, 3)
			s.TickNow(time.Unix(0, 0)) // baseline
			return instance{
				size: 3,
				push: func(i int) { s.TickNow(time.Unix(int64(i), 0)) },
				read: func(n int) []int {
					// Recent is oldest first; the table compares newest first.
					var ids []int
					for _, sm := range s.Recent(n) {
						ids = append(ids, int(sm.T.Unix()))
					}
					slices.Reverse(ids)
					return ids
				},
			}
		}},
	}
	// newest lists the last count numbers up to hi, newest first.
	newest := func(hi, count int) []int {
		var out []int
		for i := hi; i > hi-count && i > 0; i-- {
			out = append(out, i)
		}
		return out
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := c.new(t)
			check := func(n int, want []int) {
				t.Helper()
				if got := r.read(n); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("read(%d) = %v, want %v", n, got, want)
				}
			}
			// Fill part way: everything pushed, newest first.
			pushed := 0
			for ; pushed < r.size-1; pushed++ {
				r.push(pushed + 1)
			}
			check(0, newest(pushed, pushed))
			// Wrap: push past twice the size; only the last size remain.
			for ; pushed < 2*r.size+1; pushed++ {
				r.push(pushed + 1)
			}
			check(0, newest(pushed, r.size))
			check(-1, newest(pushed, r.size))
			check(1<<31-1, newest(pushed, r.size))
			if !r.uncounted {
				check(2, newest(pushed, 2))
			}
		})
	}
}

// TestFlightRecorderKeepsSlowOp checks that a flight-recorded op keeps its
// client-side records intact after ten times the op ring's capacity of fast
// ops, that it stays findable by trace id once the op ring evicted it, and
// that fast ops never enter the recorder.
func TestFlightRecorderKeepsSlowOp(t *testing.T) {
	const capacity = 4
	tr := NewTracer(capacity)
	tr.SetSlowThreshold(int64(time.Millisecond))

	slow := tr.Start("WRITE", "/slow", "n0")
	slow.Child(SpanRecord{Name: SpanHop, Node: "n1", NodeID: "ab12", Prefix: 1})
	slow.Child(SpanRecord{Name: "route", Node: "n2", DurNS: 300})
	slow.Child(SpanRecord{Name: "apply", Node: "n2", DurNS: 900})
	slow.Root.ServedBy, slow.Root.Replicas, slow.Root.Failovers = "n2", 2, 1
	tr.Finish(slow, 5*time.Millisecond, nil)
	want := tr.Slow(0)

	for i := 0; i < 10*capacity; i++ {
		op := tr.Start("READ", "/fast", "n0")
		op.Child(SpanRecord{Name: "route", Node: "n3", DurNS: 1})
		tr.Finish(op, time.Microsecond, nil)
	}
	got := tr.Slow(0)
	if len(want) != 4 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flight recorder after fast ops:\n got %+v\nwant %+v", got, want)
	}
	root := got[0]
	if root.Parent != 0 || root.Path != "/slow" || root.DurNS != int64(5*time.Millisecond) ||
		root.ServedBy != "n2" || root.Replicas != 2 || root.Failovers != 1 {
		t.Fatalf("slow root lost fields: %+v", root)
	}
	for i, name := range []string{SpanHop, "route", "apply"} {
		if k := got[i+1]; k.Name != name || k.Parent != root.Span || k.Hi != root.Hi || k.Lo != root.Lo {
			t.Fatalf("child %d = %+v, want %s under the root", i, k, name)
		}
	}
	for _, r := range tr.Recent(0) {
		if r.Hi == root.Hi && r.Lo == root.Lo {
			t.Fatal("op ring still holds the slow op; the test did not evict it")
		}
	}
	if found := tr.SpansFor(root.Hi, root.Lo); fmt.Sprint(found) != fmt.Sprint(want) {
		t.Fatalf("SpansFor after eviction = %+v, want the recorded op", found)
	}
}
