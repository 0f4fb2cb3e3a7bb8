package obs

import (
	"sort"
)

// TraceNode is one node of an assembled causal tree: a span and the spans
// it caused (nested RPCs the server issued while handling it).
type TraceNode struct {
	Span     Span         `json:"span"`
	Children []*TraceNode `json:"children,omitempty"`
}

// AssembledTrace is the cluster-wide view of one operation, rebuilt from the
// originating node's Trace plus server-span fragments collected from every
// live node. Roots are the children of the trace's root span: the origin's
// own client-side stages (route, apply) beside the server spans the origin
// caused directly (route hops, the serving NFS RPC, the primary apply);
// deeper fan-out (mirrors pushed by the primary) hangs beneath them. Spans
// whose parent fragment was evicted from its ring surface as additional
// roots rather than being dropped.
type AssembledTrace struct {
	Hi     uint64       `json:"hi"`
	Lo     uint64       `json:"lo"`
	Origin *Trace       `json:"origin,omitempty"`
	Roots  []*TraceNode `json:"roots,omitempty"`
	// NodeCount is how many distinct cluster nodes the spans name as their
	// server, plus the origin.
	NodeCount int `json:"node_count"`
	SpanCount int `json:"span_count"`
}

// Assemble rebuilds the causal tree for one trace id from an optional origin
// trace (whose client-side stages join the tree) and span fragments gathered
// across the cluster. Duplicate fragments (the same span collected twice) are
// dropped; ordering is deterministic (children sorted by span id) so
// identical inputs render identically.
func Assemble(hi, lo uint64, origin *Trace, frags []Span) *AssembledTrace {
	at := &AssembledTrace{Hi: hi, Lo: lo, Origin: origin}
	seen := make(map[string]bool)
	if origin != nil {
		frags = append(origin.Spans[:len(origin.Spans):len(origin.Spans)], frags...)
		if origin.Node != "" {
			seen[origin.Node] = true
		}
	}
	nodes := make(map[uint64]*TraceNode, len(frags))
	order := make([]*TraceNode, 0, len(frags))
	for _, f := range frags {
		if f.Hi != hi || f.Lo != lo || f.ID == 0 || nodes[f.ID] != nil {
			continue
		}
		n := &TraceNode{Span: f}
		nodes[f.ID] = n
		order = append(order, n)
		seen[f.Node] = true
	}
	at.SpanCount = len(order)
	at.NodeCount = len(seen)
	for _, n := range order {
		if p := nodes[n.Span.Parent]; p != nil {
			p.Children = append(p.Children, n)
		} else {
			at.Roots = append(at.Roots, n)
		}
	}
	sortTree(at.Roots)
	return at
}

func sortTree(ns []*TraceNode) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Span.ID < ns[j].Span.ID })
	for _, n := range ns {
		sortTree(n.Children)
	}
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
