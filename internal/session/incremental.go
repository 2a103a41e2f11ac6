package session

import (
	"cmp"
	"slices"

	"repro/internal/core"
)

// IncrementalKind names the memoized bottom-up engine a solver maps to.
// Only heuristics whose per-vertex decision depends on nothing outside the
// vertex's subtree can be recomputed over dirty root paths; the others
// (two-pass and global-ordering heuristics, the exact solvers) re-solve
// from scratch on every delta.
type IncrementalKind int

const (
	// IncrementalNone marks solvers without a memoized engine: every
	// delta triggers a cold full solve.
	IncrementalNone IncrementalKind = iota
	// IncrementalMG is heuristics.MG (MultipleGreedy): each vertex
	// absorbs pending requests up to capacity, smallest clients first.
	IncrementalMG
	// IncrementalCBU is heuristics.CBU (ClosestBottomUp): each vertex
	// absorbs its pending subtree iff the whole of it fits.
	IncrementalCBU
)

// pend is one client's requests still unserved while climbing the tree —
// the element of the per-vertex escape lists.
type pend struct {
	c   int
	rem int64
}

// bottomUp is the memoized incremental engine behind IncrementalMG and
// IncrementalCBU. Both heuristics are subtree-local: the decision at a
// vertex v is a pure function of the pending requests escaping v's child
// subtrees, so the engine memoizes, per internal vertex, the escape list
// (clients with remaining requests leaving subtree(v), in client preorder)
// and the portions served at v. A delta that dirties only a root path then
// recomputes just the dirty vertices, children before parents, reusing
// every clean subtree's memo — and produces a state byte-identical to a
// full bottom-up sweep, because the sweep itself never reads anything but
// those summaries.
type bottomUp struct {
	kind IncrementalKind
	in   *core.Instance

	esc    [][]pend // per internal vertex: pending escaping subtree(v), client preorder
	taken  [][]pend // per internal vertex: (client, load) served at v
	isRepl []bool
	served []int64 // per-client scratch: amount taken at the current vertex

	cost     int64 // Σ S[v] over replica vertices
	unserved int64 // requests escaping the root; > 0 means no solution

	scratch []pend // pending-list build buffer
	sorted  []pend // MG sort buffer
	flips   []int  // vertices whose replica flag changed in the last pass
}

func newBottomUp(kind IncrementalKind) *bottomUp {
	return &bottomUp{kind: kind}
}

// full (re)computes the whole memo state for in: a plain bottom-up sweep,
// identical in outcome to the cold heuristic. Every memo list is reused
// in place.
func (b *bottomUp) full(in *core.Instance) {
	b.in = in
	n := in.Tree.Len()
	b.grow(n)
	for v := 0; v < n; v++ {
		b.esc[v] = b.esc[v][:0]
		b.taken[v] = b.taken[v][:0]
		b.isRepl[v] = false
		b.served[v] = 0
	}
	b.cost = 0
	b.flips = b.flips[:0]
	t := in.Tree
	for _, v := range t.PostOrder() {
		if t.IsInternal(v) {
			b.recompute(v)
		}
	}
}

// grow extends the per-vertex state to a tree of n vertices that extends
// the current one (clients joined: ids are stable and the newcomers are
// leaves), keeping every memo — a vertex's summary depends only on its
// subtree, so the newcomers' root paths are all that goes stale, and the
// caller marks them dirty. The arrays grow in place, amortized.
func (b *bottomUp) grow(n int) {
	b.esc = resized(b.esc, n)
	b.taken = resized(b.taken, n)
	b.isRepl = resized(b.isRepl, n)
	b.served = resized(b.served, n)
}

// resized returns s with length n, reusing its backing array when it
// fits and growing it amortized otherwise; elements past the old length
// are zero.
func resized[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// update recomputes the dirty internal vertices, which the caller passes
// children-before-parents (depth descending suffices: the dirty set is a
// union of root paths, so same-depth dirty vertices are never related).
// Every dirty vertex's clean children keep their memos; the root is always
// dirty, so cost/unserved end up current.
func (b *bottomUp) update(dirty []int) {
	b.flips = b.flips[:0]
	for _, v := range dirty {
		b.recompute(v)
	}
}

// recompute re-derives taken/esc at internal vertex v from its children's
// current state, mirroring one step of the cold sweep exactly (including
// the stable smallest-first tie-break of deleteMultiple for MG).
func (b *bottomUp) recompute(v int) {
	t := b.in.Tree
	pending := b.scratch[:0]
	var total int64
	for _, ch := range t.Children(v) {
		if t.IsClient(ch) {
			if r := b.in.R[ch]; r > 0 {
				pending = append(pending, pend{ch, r})
				total += r
			}
			continue
		}
		for _, p := range b.esc[ch] {
			total += p.rem
		}
		pending = append(pending, b.esc[ch]...)
	}
	b.scratch = pending

	taken := b.taken[v][:0]
	esc := b.esc[v][:0]
	w := b.in.W[v]
	switch b.kind {
	case IncrementalCBU:
		// CBU: absorb everything iff the whole pending subtree fits.
		if total > 0 && w >= total {
			taken = append(taken, pending...)
		} else {
			esc = append(esc, pending...)
		}
	case IncrementalMG:
		// MG: absorb min(total, W) — whole clients smallest-remaining
		// first (ties keep preorder, as the heuristic's stable sort
		// does), then one partial client, exactly Algorithm 10's delete.
		if total > 0 && w > 0 {
			budget := total
			if budget > w {
				budget = w
			}
			srt := append(b.sorted[:0], pending...)
			slices.SortStableFunc(srt, func(a, b pend) int { return cmp.Compare(a.rem, b.rem) })
			b.sorted = srt
			for _, p := range srt {
				if p.rem <= budget {
					budget -= p.rem
					taken = append(taken, p)
					b.served[p.c] = p.rem
					if budget == 0 {
						break
					}
				} else {
					taken = append(taken, pend{p.c, budget})
					b.served[p.c] = budget
					break
				}
			}
			for _, p := range pending {
				if r := p.rem - b.served[p.c]; r > 0 {
					esc = append(esc, pend{p.c, r})
				}
			}
			for _, p := range taken {
				b.served[p.c] = 0
			}
		} else {
			esc = append(esc, pending...)
		}
	}
	b.taken[v] = taken
	b.esc[v] = esc

	if now := len(taken) > 0; now != b.isRepl[v] {
		b.isRepl[v] = now
		if now {
			b.cost += b.in.S[v]
		} else {
			b.cost -= b.in.S[v]
		}
		b.flips = append(b.flips, v)
	}
	if v == t.Root() {
		b.unserved = 0
		for _, p := range esc {
			b.unserved += p.rem
		}
	}
}

// noSolution reports whether requests escape the root — for MG that is
// exact infeasibility under the Multiple policy, for CBU the heuristic's
// failure, both matching the cold run's ErrNoSolution.
func (b *bottomUp) noSolution() bool { return b.unserved > 0 }

// replicas returns the replica vertices in ascending id order (the same
// order core.Solution.Replicas uses).
func (b *bottomUp) replicas() []int {
	out := make([]int, 0, 16)
	for _, v := range b.in.Tree.Internal() {
		if b.isRepl[v] {
			out = append(out, v)
		}
	}
	return out
}

// materialize builds the full Solution from the memos. Portions are
// emitted per client in server post-order — the order the cold sweep's
// assignments arrive in — so the result is byte-identical to the cold
// heuristic's Solution.
func (b *bottomUp) materialize() *core.Solution {
	t := b.in.Tree
	ports := make([][]core.Portion, t.Len())
	for _, v := range t.PostOrder() {
		if t.IsClient(v) {
			continue
		}
		for _, p := range b.taken[v] {
			ports[p.c] = append(ports[p.c], core.Portion{Server: v, Load: p.rem})
		}
	}
	return core.NewSolutionFromPortions(ports, t.Clients())
}
