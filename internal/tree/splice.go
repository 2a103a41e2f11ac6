package tree

import (
	"cmp"
	"fmt"
	"slices"
)

// WithClients returns t extended by len(parents) client leaves: the i-th
// gets id t.Len()+i and hangs under parents[i], which must be an internal
// vertex of t. The result is exactly the tree FromParents builds from t's
// parent array with parents appended (and their client flags set), but it
// is spliced from t's layout instead of rebuilt. Children are listed in id
// order and a newcomer's id is the largest, so each newcomer is its
// parent's last child: it lands right after the parent's subtree in
// preorder, right before the parent in postorder and right after the
// subtree's clients in client order. Every array is therefore the old one
// with k values inserted — one linear copy — and only the subtree sizes
// and client counts along each parent's root path change. t is not
// modified; an empty parents returns t itself.
func (t *Tree) WithClients(parents []int) (*Tree, error) {
	n, k := t.Len(), len(parents)
	if k == 0 {
		return t, nil
	}
	for i, p := range parents {
		switch {
		case p < 0 || p >= n:
			return nil, fmt.Errorf("tree: vertex %d has out-of-range parent %d", n+i, p)
		case t.isClient[p]:
			return nil, fmt.Errorf("tree: client %d has a child %d", p, n+i)
		}
	}
	m := n + k
	preEnd := func(i int) int { p := parents[i]; return t.preIndex[p] + t.subtreeSize[p] }

	// byPre lists the newcomers in preorder: by the end of the parent's
	// subtree; parents sharing an end are nested, the deeper one's
	// newcomers first; one parent's in id order. Client order and
	// postorder follow the same sequence.
	byPre := make([]int, 2*k)
	byParent := byPre[k:]
	byPre = byPre[:k]
	for i := range byPre {
		byPre[i], byParent[i] = i, i
	}
	slices.SortStableFunc(byPre, func(a, b int) int {
		if c := cmp.Compare(preEnd(a), preEnd(b)); c != 0 {
			return c
		}
		return cmp.Compare(t.depth[parents[b]], t.depth[parents[a]])
	})
	slices.SortStableFunc(byParent, func(a, b int) int { return cmp.Compare(parents[a], parents[b]) })

	nt := &Tree{
		parent:      append(append(make([]int, 0, m), t.parent...), parents...),
		isClient:    make([]bool, m),
		root:        t.root,
		depth:       make([]int, m),
		childStart:  make([]int, m+1),
		childList:   make([]int, m-1),
		internal:    t.internal,
		clients:     append(make([]int, 0, len(t.clients)+k), t.clients...),
		postOrder:   make([]int, m),
		preOrder:    make([]int, m),
		preIndex:    make([]int, m),
		subtreeSize: make([]int, m),
		clientOrder: make([]int, len(t.clientOrder)+k),
		clientStart: make([]int, m),
		clientCount: make([]int, m),
		preInternal: t.preInternal,
	}
	copy(nt.isClient, t.isClient)
	copy(nt.depth, t.depth)
	copy(nt.subtreeSize, t.subtreeSize)
	copy(nt.clientCount, t.clientCount)
	for i, p := range parents {
		c := n + i
		nt.isClient[c] = true
		nt.depth[c] = t.depth[p] + 1
		nt.clients = append(nt.clients, c)
		nt.subtreeSize[c], nt.clientCount[c] = 1, 1
		for u := p; u != None; u = t.parent[u] {
			nt.subtreeSize[u]++
			nt.clientCount[u]++
		}
	}

	// Child lists: a parent's newcomers go after its old children, so
	// child offsets shift by the newcomers of smaller parents.
	splice(nt.childList, t.childList, n, byParent, func(i int) int { return t.childStart[parents[i]+1] })
	j := 0
	for v := 0; v <= n; v++ {
		for j < k && parents[byParent[j]] < v {
			j++
		}
		nt.childStart[v] = t.childStart[v] + j
	}
	for v := n + 1; v <= m; v++ {
		nt.childStart[v] = m - 1
	}

	// The three orders, then the per-vertex offsets: an old vertex moves
	// by the newcomers inserted before its old preorder position, and all
	// of those are clients, so its client offset moves by the same.
	splice(nt.preOrder, t.preOrder, n, byPre, preEnd)
	splice(nt.postOrder, t.postOrder, n, byPre, func(i int) int {
		p := parents[i] // postorder index of p: its subtree minus p, plus the finished vertices before it
		return t.preIndex[p] - t.depth[p] + t.subtreeSize[p] - 1
	})
	splice(nt.clientOrder, t.clientOrder, n, byPre, func(i int) int {
		p := parents[i]
		return t.clientStart[p] + t.clientCount[p]
	})
	ends := byParent // byParent is spent: reuse it for the sorted insert positions
	for j, i := range byPre {
		p := parents[i]
		ends[j] = preEnd(i)
		nt.preIndex[n+i] = ends[j] + j
		nt.clientStart[n+i] = t.clientStart[p] + t.clientCount[p] + j
	}
	for v := 0; v < n; v++ {
		pos := t.preIndex[v]
		j := 0 // newcomers inserted at or before pos: ends[:j] <= pos
		for lo, hi := 0, k; lo < hi; {
			if mid := int(uint(lo+hi) >> 1); ends[mid] <= pos {
				j, lo = mid+1, mid+1
			} else {
				hi = mid
			}
		}
		nt.preIndex[v] = pos + j
		nt.clientStart[v] = t.clientStart[v] + j
	}
	return nt, nil
}

// splice fills dst (len(src)+len(order)) with src, inserting id n+i
// before src[at(i)] for each newcomer i of order; at must be
// non-decreasing along order.
func splice(dst, src []int, n int, order []int, at func(i int) int) {
	prev, d := 0, 0
	for _, i := range order {
		pos := at(i)
		d += copy(dst[d:], src[prev:pos])
		dst[d] = n + i
		d++
		prev = pos
	}
	copy(dst[d:], src[prev:])
}
