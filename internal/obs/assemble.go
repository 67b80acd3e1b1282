package obs

import (
	"sort"
)

// TraceNode is one node of an assembled causal tree: a record and the
// records it caused (an op's stages and hops, the nested RPCs a server
// issued while handling a span).
type TraceNode struct {
	Span     SpanRecord   `json:"span"`
	Children []*TraceNode `json:"children,omitempty"`
}

// AssembledTrace is the cluster-wide view of one operation, rebuilt from the
// records collected from every live node. The op's root record (Parent 0)
// heads the tree; a record whose parent was evicted from its ring surfaces
// as an additional root rather than being dropped.
type AssembledTrace struct {
	Hi    uint64       `json:"hi"`
	Lo    uint64       `json:"lo"`
	Roots []*TraceNode `json:"roots,omitempty"`
	// NodeCount is how many distinct cluster nodes the records name.
	NodeCount int `json:"node_count"`
	SpanCount int `json:"span_count"`
}

// Assemble rebuilds the causal tree of every trace the records belong to,
// in the order each trace id first appears. Duplicate records (the same
// span collected twice) are dropped. Siblings are ordered deterministically:
// the originating node's records (From empty) first, in the order they were
// recorded, then server spans by span id, so identical inputs render
// identically.
func Assemble(recs []SpanRecord) []*AssembledTrace {
	type key struct{ hi, lo, span uint64 } // span 0 names the trace itself
	type nodeKey struct {
		hi, lo uint64
		node   string
	}
	var out []*AssembledTrace
	traces := make(map[key]*AssembledTrace)
	nodes := make(map[key]*TraceNode, len(recs))
	named := make(map[nodeKey]bool)
	order := make([]*TraceNode, 0, len(recs))
	for _, r := range recs {
		k := key{r.Hi, r.Lo, r.Span}
		if r.Span == 0 || (r.Hi == 0 && r.Lo == 0) || nodes[k] != nil {
			continue
		}
		at := traces[key{r.Hi, r.Lo, 0}]
		if at == nil {
			at = &AssembledTrace{Hi: r.Hi, Lo: r.Lo}
			traces[key{r.Hi, r.Lo, 0}] = at
			out = append(out, at)
		}
		n := &TraceNode{Span: r}
		nodes[k] = n
		order = append(order, n)
		at.SpanCount++
		if nk := (nodeKey{r.Hi, r.Lo, r.Node}); r.Node != "" && !named[nk] {
			named[nk] = true
			at.NodeCount++
		}
	}
	for _, n := range order {
		r := n.Span
		if p := nodes[key{r.Hi, r.Lo, r.Parent}]; p != nil {
			p.Children = append(p.Children, n)
			continue
		}
		at := traces[key{r.Hi, r.Lo, 0}]
		at.Roots = append(at.Roots, n)
	}
	for _, at := range out {
		sortTree(at.Roots)
	}
	return out
}

func sortTree(ns []*TraceNode) {
	sort.SliceStable(ns, func(i, j int) bool {
		a, b := ns[i].Span, ns[j].Span
		if (a.From == "") != (b.From == "") {
			return a.From == ""
		}
		return a.From != "" && a.Span < b.Span
	})
	for _, n := range ns {
		sortTree(n.Children)
	}
}

// Root returns the op's root record, or nil when the originating node's
// records were not collected (evicted, or that node is down).
func (a *AssembledTrace) Root() *SpanRecord {
	for _, n := range a.Roots {
		if n.Span.Parent == 0 {
			return &n.Span
		}
	}
	return nil
}

// Walk visits every node of the tree depth-first, parents before children.
func (a *AssembledTrace) Walk(fn func(depth int, n *TraceNode)) {
	var rec func(depth int, ns []*TraceNode)
	rec = func(depth int, ns []*TraceNode) {
		for _, n := range ns {
			fn(depth, n)
			rec(depth+1, n.Children)
		}
	}
	rec(0, a.Roots)
}
