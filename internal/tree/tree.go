// Package tree implements the distribution-tree substrate used by the
// replica-placement algorithms: a rooted tree whose leaves are clients and
// whose internal vertices are candidate server locations.
//
// Vertices are dense integer ids in [0, Len). The tree is immutable once
// built (see Builder). All path/ancestor helpers follow the paper's
// conventions: Ancestors(v) excludes v itself and ends at the root, and the
// "link" of a non-root vertex v is the edge v -> parent(v).
//
// Internally the tree keeps an Euler-tour (preorder-contiguous) layout:
// every subtree occupies one contiguous interval of the preorder array, and
// the clients of every subtree occupy one contiguous interval of a single
// client array. Subtree(v) and ClientsUnder(v) are therefore O(1) slice
// views over shared backing arrays, and IsAncestor/InSubtree are O(1)
// interval checks. Hot paths iterate ancestors without allocating:
//
//	for p := t.Parent(v); p != tree.None; p = t.Parent(p) { ... }
package tree

import (
	"errors"
	"fmt"
)

// None marks the absence of a vertex (e.g. the parent of the root).
const None = -1

// Tree is an immutable rooted tree partitioned into internal vertices
// (candidate servers, the paper's set N) and clients (leaves, the set C).
type Tree struct {
	parent   []int
	isClient []bool
	root     int
	depth    []int

	// The children of v are childList[childStart[v]:childStart[v+1]],
	// in declared (id) order: one slab for the whole tree.
	childStart []int
	childList  []int

	internal []int // internal vertex ids, in id order
	clients  []int // client vertex ids, in id order

	postOrder []int // all vertices, children before parents
	preOrder  []int // all vertices, parents before children

	// Euler-tour layout: subtree(v) is preOrder[preIndex[v] :
	// preIndex[v]+subtreeSize[v]], and the clients of subtree(v) are
	// clientOrder[clientStart[v] : clientStart[v]+clientCount[v]].
	preIndex    []int // position of each vertex in preOrder
	subtreeSize []int // number of vertices in subtree(v), including v
	clientOrder []int // all clients, in preorder
	clientStart []int // per vertex: offset of its subtree's clients
	clientCount []int // per vertex: number of clients in its subtree

	preInternal []int // internal vertices, in preorder
}

// Len returns the total number of vertices (clients + internal).
func (t *Tree) Len() int { return len(t.parent) }

// NumInternal returns |N|, the number of internal vertices.
func (t *Tree) NumInternal() int { return len(t.internal) }

// NumClients returns |C|, the number of clients.
func (t *Tree) NumClients() int { return len(t.clients) }

// Root returns the root vertex id. The root is always an internal vertex.
func (t *Tree) Root() int { return t.root }

// Parent returns the parent of v, or None for the root.
func (t *Tree) Parent(v int) int { return t.parent[v] }

// Children returns the children of v in declared order, nil for a
// leaf. The returned slice must not be modified.
func (t *Tree) Children(v int) []int {
	lo, hi := t.childStart[v], t.childStart[v+1]
	if lo == hi {
		return nil
	}
	return t.childList[lo:hi:hi]
}

// IsClient reports whether v is a client (leaf).
func (t *Tree) IsClient(v int) bool { return t.isClient[v] }

// IsInternal reports whether v is an internal vertex (candidate server).
func (t *Tree) IsInternal(v int) bool { return !t.isClient[v] }

// Internal returns the internal vertex ids in increasing id order.
// The returned slice must not be modified.
func (t *Tree) Internal() []int { return t.internal }

// Clients returns the client vertex ids in increasing id order.
// The returned slice must not be modified.
func (t *Tree) Clients() []int { return t.clients }

// Depth returns the number of edges between v and the root.
func (t *Tree) Depth(v int) int { return t.depth[v] }

// Height returns the maximum depth over all vertices.
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.depth {
		if d > h {
			h = d
		}
	}
	return h
}

// PostOrder returns all vertices with children listed before parents.
// The returned slice must not be modified.
func (t *Tree) PostOrder() []int { return t.postOrder }

// PreOrder returns all vertices with parents listed before children (a
// depth-first traversal from the root). The returned slice must not be
// modified.
func (t *Tree) PreOrder() []int { return t.preOrder }

// PreOrderInternal returns the internal vertices in preorder — the
// depth-first sweep the paper's tie-breaks use, without the clients.
// The returned slice must not be modified.
func (t *Tree) PreOrderInternal() []int { return t.preInternal }

// Ancestors returns the vertices on the path from v (excluded) to the root
// (included), closest first — the paper's Ancestors(v). It allocates; hot
// paths should iterate with Parent instead:
//
//	for p := t.Parent(v); p != tree.None; p = t.Parent(p) { ... }
func (t *Tree) Ancestors(v int) []int {
	var out []int
	for p := t.parent[v]; p != None; p = t.parent[p] {
		out = append(out, p)
	}
	return out
}

// IsAncestor reports whether a is a strict ancestor of v. O(1) via the
// preorder interval of a's subtree.
func (t *Tree) IsAncestor(a, v int) bool {
	if a == v {
		return false
	}
	i := t.preIndex[v]
	return t.preIndex[a] <= i && i < t.preIndex[a]+t.subtreeSize[a]
}

// InSubtree reports whether v lies in subtree(s), including v == s. O(1)
// via the preorder interval of s's subtree.
func (t *Tree) InSubtree(v, s int) bool {
	i := t.preIndex[v]
	return t.preIndex[s] <= i && i < t.preIndex[s]+t.subtreeSize[s]
}

// Dist returns the number of edges on the path from v up to its ancestor a
// (a may equal v, giving 0). It panics if a is not v or an ancestor of v.
func (t *Tree) Dist(v, a int) int {
	d := 0
	for u := v; u != a; u = t.parent[u] {
		if u == None {
			panic(fmt.Sprintf("tree: %d is not an ancestor of %d", a, v))
		}
		d++
	}
	return d
}

// PathLinks returns the vertices whose parent-links form the path from v up
// to ancestor a: the links are u -> parent(u) for each returned u. The path
// v -> a has Dist(v, a) links.
func (t *Tree) PathLinks(v, a int) []int {
	var out []int
	for u := v; u != a; u = t.parent[u] {
		out = append(out, u)
	}
	return out
}

// ClientsUnder returns the clients in subtree(v), in preorder (the order
// their subtrees hang under v). For a client v it returns {v}. The result
// is an O(1) view over a shared backing array and must not be modified.
func (t *Tree) ClientsUnder(v int) []int {
	s := t.clientStart[v]
	return t.clientOrder[s : s+t.clientCount[v] : s+t.clientCount[v]]
}

// NumClientsUnder returns the number of clients in subtree(v).
func (t *Tree) NumClientsUnder(v int) int { return t.clientCount[v] }

// Subtree returns all vertices of subtree(v) (v first, then its
// descendants in preorder). The result is an O(1) view over the preorder
// array and must not be modified.
func (t *Tree) Subtree(v int) []int {
	i := t.preIndex[v]
	return t.preOrder[i : i+t.subtreeSize[v] : i+t.subtreeSize[v]]
}

// PreIndex returns the position of v in PreOrder(). Subtree(v) occupies
// the interval [PreIndex(v), PreIndex(v)+SubtreeSize(v)).
func (t *Tree) PreIndex(v int) int { return t.preIndex[v] }

// SubtreeSize returns the number of vertices in subtree(v), including v.
func (t *Tree) SubtreeSize(v int) int { return t.subtreeSize[v] }

// Builder incrementally constructs a Tree. The zero value is ready to use.
// The first added vertex must be the internal root (AddRoot).
type Builder struct {
	parent   []int
	isClient []bool
	root     int
	hasRoot  bool
	err      error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{root: None} }

func (b *Builder) fail(err error) int {
	if b.err == nil {
		b.err = err
	}
	return None
}

// AddRoot adds the root (an internal vertex) and returns its id.
func (b *Builder) AddRoot() int {
	if b.hasRoot {
		return b.fail(errors.New("tree: root already added"))
	}
	b.hasRoot = true
	b.root = len(b.parent)
	b.parent = append(b.parent, None)
	b.isClient = append(b.isClient, false)
	return b.root
}

func (b *Builder) add(parent int, client bool) int {
	if b.err != nil {
		return None
	}
	if !b.hasRoot {
		return b.fail(errors.New("tree: AddRoot must be called first"))
	}
	if parent < 0 || parent >= len(b.parent) {
		return b.fail(fmt.Errorf("tree: parent %d out of range", parent))
	}
	if b.isClient[parent] {
		return b.fail(fmt.Errorf("tree: parent %d is a client and cannot have children", parent))
	}
	id := len(b.parent)
	b.parent = append(b.parent, parent)
	b.isClient = append(b.isClient, client)
	return id
}

// AddNode adds an internal vertex under parent and returns its id.
func (b *Builder) AddNode(parent int) int { return b.add(parent, false) }

// AddClient adds a client (leaf) under parent and returns its id.
func (b *Builder) AddClient(parent int) int { return b.add(parent, true) }

// Build finalizes the tree. It returns an error if the builder recorded an
// error or the structure is invalid (no root, client with children, ...).
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.hasRoot {
		return nil, errors.New("tree: empty tree")
	}
	return FromParents(b.parent, b.isClient)
}

// MustBuild is Build that panics on error; intended for tests and examples.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// FromParents constructs a Tree from a parent array (None for the root) and
// a per-vertex client flag. It validates the structure: exactly one root,
// the root is internal, clients are leaves, all vertices reach the root.
func FromParents(parent []int, isClient []bool) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, errors.New("tree: empty tree")
	}
	if len(isClient) != n {
		return nil, fmt.Errorf("tree: parent/isClient length mismatch: %d vs %d", n, len(isClient))
	}
	t := &Tree{
		parent:   append([]int(nil), parent...),
		isClient: append([]bool(nil), isClient...),
		root:     None,
	}
	// Children lists: count per parent, prefix-sum the counts into
	// childStart, then fill one slab in id order.
	t.childStart = make([]int, n+1)
	for v, p := range t.parent {
		switch {
		case p == None:
			if t.root != None {
				return nil, fmt.Errorf("tree: multiple roots (%d and %d)", t.root, v)
			}
			t.root = v
		case p < 0 || p >= n:
			return nil, fmt.Errorf("tree: vertex %d has out-of-range parent %d", v, p)
		case t.isClient[p]:
			return nil, fmt.Errorf("tree: client %d has a child %d", p, v)
		default:
			t.childStart[p+1]++
		}
	}
	if t.root == None {
		return nil, errors.New("tree: no root")
	}
	if t.isClient[t.root] {
		return nil, errors.New("tree: root is a client")
	}
	for v := 0; v < n; v++ {
		t.childStart[v+1] += t.childStart[v]
	}
	t.childList = make([]int, n-1)
	fill := make([]int, n)
	copy(fill, t.childStart[:n])
	for v, p := range t.parent {
		if p != None {
			t.childList[fill[p]] = v
			fill[p]++
		}
	}
	// Depth + reachability + traversal orders via an explicit stack.
	// Every vertex but the root sits in exactly one children list, so
	// no vertex is pushed twice; a cycle shows up as unreachable
	// vertices instead.
	t.depth = make([]int, n)
	t.preOrder = make([]int, 0, n)
	stack := append(fill[:0], t.root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.preOrder = append(t.preOrder, v)
		// Push children in reverse so they are visited in declared order.
		ch := t.Children(v)
		for i := len(ch) - 1; i >= 0; i-- {
			c := ch[i]
			t.depth[c] = t.depth[v] + 1
			stack = append(stack, c)
		}
	}
	if len(t.preOrder) != n {
		return nil, fmt.Errorf("tree: %d vertices unreachable from root", n-len(t.preOrder))
	}
	// Post-order: reverse of a preorder that pushes children in declared
	// order would not do; compute directly by reversing a "parents first,
	// right-to-left children" traversal.
	t.postOrder = make([]int, 0, n)
	stack = append(stack[:0], t.root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.postOrder = append(t.postOrder, v)
		stack = append(stack, t.Children(v)...)
	}
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		t.postOrder[i], t.postOrder[j] = t.postOrder[j], t.postOrder[i]
	}

	nc := 0
	for _, c := range t.isClient {
		if c {
			nc++
		}
	}
	t.internal = make([]int, 0, n-nc)
	t.clients = make([]int, 0, nc)
	for v := 0; v < n; v++ {
		if t.isClient[v] {
			t.clients = append(t.clients, v)
		} else {
			t.internal = append(t.internal, v)
		}
	}
	// subtreeSize + clientCount by post-order accumulation.
	t.subtreeSize = make([]int, n)
	t.clientCount = make([]int, n)
	for _, v := range t.postOrder {
		t.subtreeSize[v] = 1
		if t.isClient[v] {
			t.clientCount[v] = 1
			continue
		}
		for _, c := range t.Children(v) {
			t.subtreeSize[v] += t.subtreeSize[c]
			t.clientCount[v] += t.clientCount[c]
		}
	}
	// Euler-tour layout: a subtree is a preorder interval, so its clients
	// are the clients seen before it in preorder onward — one linear pass
	// yields contiguous per-subtree client views.
	t.preIndex = make([]int, n)
	t.clientStart = make([]int, n)
	t.clientOrder = make([]int, 0, len(t.clients))
	t.preInternal = make([]int, 0, len(t.internal))
	for i, v := range t.preOrder {
		t.preIndex[v] = i
		t.clientStart[v] = len(t.clientOrder)
		if t.isClient[v] {
			t.clientOrder = append(t.clientOrder, v)
		} else {
			t.preInternal = append(t.preInternal, v)
		}
	}
	return t, nil
}

// Parents returns a copy of the parent array (None for the root).
func (t *Tree) Parents() []int { return append([]int(nil), t.parent...) }

// ClientFlags returns a copy of the per-vertex client flags.
func (t *Tree) ClientFlags() []bool { return append([]bool(nil), t.isClient...) }
