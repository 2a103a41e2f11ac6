package tree

// DirtySet tracks the vertices whose placement-relevant data changed since
// the last solve, closed under the ancestor relation: marking a vertex marks
// its whole root path, so the set is always a union of root paths. That is
// exactly the region a bottom-up heuristic has to revisit — every vertex
// whose subtree contains a change — while all clean subtrees keep their
// memoized summaries.
//
// The invariant "v dirty ⇒ parent(v) dirty" lets MarkPath stop climbing at
// the first vertex that is already dirty, so a batch of k marks costs
// O(depth + k) rather than O(k·depth). Clearing is O(1) by bumping a
// generation counter.
//
// A DirtySet is not safe for concurrent use.
type DirtySet struct {
	t    *Tree
	mark []uint32 // generation stamp per vertex; == gen means dirty
	gen  uint32
	list []int // dirty vertices, in mark order
}

// NewDirtySet returns an empty dirty set over t.
func NewDirtySet(t *Tree) *DirtySet {
	return &DirtySet{t: t, mark: make([]uint32, t.Len()), gen: 1}
}

// Rebind points the set at t, a tree that extends its current one with
// new vertex ids (see Tree.WithClients), keeping every mark; the stamp
// array grows in place, amortized. After Reset the set may also be bound
// back to the tree it extended.
func (d *DirtySet) Rebind(t *Tree) {
	d.t = t
	if n := t.Len(); n > len(d.mark) {
		d.mark = append(d.mark, make([]uint32, n-len(d.mark))...)
	}
}

// MarkPath marks v and every ancestor of v as dirty. It stops at the first
// already-dirty vertex: by the path invariant everything above is dirty too.
func (d *DirtySet) MarkPath(v int) {
	for u := v; u != None; u = d.t.parent[u] {
		if d.mark[u] == d.gen {
			return
		}
		d.mark[u] = d.gen
		d.list = append(d.list, u)
	}
}

// IsDirty reports whether v has been marked since the last Reset.
func (d *DirtySet) IsDirty(v int) bool { return d.mark[v] == d.gen }

// Len returns the number of dirty vertices (clients and internal).
func (d *DirtySet) Len() int { return len(d.list) }

// Vertices returns the dirty vertices in an unspecified order. The returned
// slice is valid until the next MarkPath or Reset and must not be modified.
func (d *DirtySet) Vertices() []int { return d.list }

// InternalFraction returns the dirty share of the internal vertices — the
// knob a session compares against its full-solve fallback threshold. Clients
// in the set do not count: only internal vertices cost recomputation.
func (d *DirtySet) InternalFraction() float64 {
	if d.t.NumInternal() == 0 {
		return 0
	}
	n := 0
	for _, v := range d.list {
		if d.t.IsInternal(v) {
			n++
		}
	}
	return float64(n) / float64(d.t.NumInternal())
}

// Reset clears the set in O(1). The generation wrap at 2^32 re-zeros the
// stamp array, so a stale stamp can never alias a future generation.
func (d *DirtySet) Reset() {
	d.list = d.list[:0]
	d.gen++
	if d.gen == 0 { // wrapped: stamps from 2^32 marks ago could alias
		clear(d.mark)
		d.gen = 1
	}
}
