package session

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tree"
)

// Delta op names.
const (
	OpSetRate      = "set_rate"
	OpSetCapacity  = "set_capacity"
	OpAddClient    = "add_client"
	OpRemoveClient = "remove_client"
)

// Op is one typed delta operation. A PATCH body carries a batch of ops
// applied atomically under one revision bump.
type Op struct {
	// Op is one of set_rate, set_capacity, add_client, remove_client.
	Op string `json:"op"`
	// Vertex targets set_rate (a client), set_capacity (an internal
	// vertex) and remove_client (a client). Ids assigned to clients added
	// earlier in the same batch are valid targets.
	Vertex int `json:"vertex,omitempty"`
	// Value is the new rate (set_rate) or capacity (set_capacity).
	Value int64 `json:"value,omitempty"`
	// Parent is the internal vertex the new client attaches to
	// (add_client); the new id — Len() before the op — is returned in the
	// apply result.
	Parent int `json:"parent,omitempty"`
	// Rate is the new client's request rate (add_client).
	Rate int64 `json:"rate,omitempty"`
	// QoS/Comm/Bandwidth optionally set the new client's QoS bound and
	// its link's communication time and bandwidth cap (add_client);
	// omitted they default to unconstrained (and 1 hop).
	QoS       *int   `json:"qos,omitempty"`
	Comm      *int64 `json:"comm,omitempty"`
	Bandwidth *int64 `json:"bandwidth,omitempty"`
}

// Diff is one placement change: the replicas added and dropped by a
// revision, with the resulting storage cost. Watch streams these.
type Diff struct {
	Rev        uint64 `json:"rev"`
	Add        []int  `json:"add,omitempty"`
	Drop       []int  `json:"drop,omitempty"`
	Cost       int64  `json:"cost"`
	NoSolution bool   `json:"no_solution,omitempty"`
}

// ApplyResult reports one applied delta batch.
type ApplyResult struct {
	Diff
	// Mode is "incremental" (dirty-path recompute over memoized
	// summaries) or "full" (cold re-solve).
	Mode string `json:"mode"`
	// AddedClients are the vertex ids assigned to this batch's
	// add_client ops, in op order.
	AddedClients []int `json:"added_clients,omitempty"`
}

// Session is one registered placement instance: the mutable problem data,
// the solver, the current placement and the diff history watchers resume
// from. All methods are safe for concurrent use.
type Session struct {
	m      *Manager
	id     string
	solver Solver

	mu       sync.Mutex
	in       *core.Instance
	removed  []bool // tombstoned clients (rate pinned to 0)
	nRemoved int

	rev        uint64
	noSolution bool
	cost       int64
	reported   []bool // replica set of the last reported revision
	nReported  int

	dirty *tree.DirtySet
	inc   *bottomUp      // nil for solvers without a memoized engine
	sol   *core.Solution // fallback solvers: last cold solution

	diffs    []Diff // ring: diffs for revisions [firstRev, rev]
	diffHead int
	diffLen  int
	firstRev uint64

	notify   chan struct{} // closed and replaced on every applied revision
	watchers int
	closed   bool

	deltas   uint64
	created  time.Time
	lastUsed time.Time
}

// ID returns the instance id.
func (s *Session) ID() string { return s.id }

// SolverName returns the resolved solver's registry name.
func (s *Session) SolverName() string { return s.solver.Name }

// Policy returns the solver's access policy.
func (s *Session) Policy() core.Policy { return s.solver.Policy }

func (s *Session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

func (s *Session) idleSince(cutoff time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watchers == 0 && s.lastUsed.Before(cutoff)
}

func (s *Session) watcherCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watchers
}

func (s *Session) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.notify) // wake watchers so their streams end
	}
	s.mu.Unlock()
}

// initialSolve computes revision 1 (the initial placement) and seeds the
// diff history with it.
func (s *Session) initialSolve(ctx context.Context) error {
	out, err := s.solveFull(ctx)
	if err != nil {
		return err
	}
	s.rev = 1
	s.firstRev = 1
	s.applyOutcome(out)
	d := Diff{Rev: 1, Add: s.replicasLocked(), Cost: s.cost, NoSolution: s.noSolution}
	s.pushDiff(d)
	return nil
}

// outcome is one solve's result in session terms.
type outcome struct {
	noSolution bool
	cost       int64
	replicas   []int          // nil for incremental outcomes (flips carry the change)
	sol        *core.Solution // fallback solvers only
}

// solveFull runs a cold full solve: the memoized engine's full sweep for
// incremental solvers, the backend otherwise.
func (s *Session) solveFull(ctx context.Context) (outcome, error) {
	if s.inc != nil {
		s.inc.full(s.in)
		out := outcome{noSolution: s.inc.noSolution()}
		if !out.noSolution {
			out.cost = s.inc.cost
			out.replicas = s.inc.replicas()
		}
		return out, nil
	}
	ctx, cancel := context.WithTimeout(ctx, s.m.opts.SolveTimeout)
	defer cancel()
	sol, noSol, err := s.solver.Solve(ctx, s.in)
	if err != nil {
		// Context errors (the solve timeout, a gone client) pass through
		// for their own status mapping; everything else is a backend fault.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return outcome{}, err
		}
		return outcome{}, fmt.Errorf("%w: solver %s: %w", ErrSolverFault, s.solver.Name, err)
	}
	out := outcome{noSolution: noSol, sol: sol}
	if !noSol {
		if sol == nil {
			return outcome{}, fmt.Errorf("%w: solver %s returned neither a solution nor infeasibility", ErrSolverFault, s.solver.Name)
		}
		if verr := sol.Validate(s.in, s.solver.Policy); verr != nil {
			return outcome{}, fmt.Errorf("%w: solver %s produced an invalid solution: %w", ErrSolverFault, s.solver.Name, verr)
		}
		out.cost = sol.StorageCost(s.in)
		out.replicas = sol.Replicas()
	}
	return out, nil
}

// applyOutcome installs a full solve's outcome: reported flags, cost and
// the fallback solution snapshot. Caller holds the lock (or owns the
// session exclusively, as initialSolve does).
func (s *Session) applyOutcome(out outcome) {
	s.noSolution = out.noSolution
	s.cost = out.cost
	s.sol = out.sol
	for v := range s.reported {
		s.reported[v] = false
	}
	s.nReported = 0
	for _, v := range out.replicas {
		s.reported[v] = true
	}
	s.nReported = len(out.replicas)
	if out.noSolution {
		s.cost = 0
	}
}

// Apply validates and applies a delta batch atomically: all ops or none,
// one revision bump, one re-solve, one diff. On a solver fault the
// mutation is rolled back and the revision unchanged.
func (s *Session) Apply(ctx context.Context, ops []Op) (*ApplyResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("session: empty delta batch")
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.lastUsed = start

	adds, err := s.validateOps(ops)
	if err != nil {
		return nil, err
	}

	undo, addedClients := s.applyOps(ops, adds)

	mode := "full"
	var out outcome
	var flips []int
	switch {
	case s.inc != nil && s.dirty.InternalFraction() <= s.m.opts.DirtyThreshold:
		mode = "incremental"
		s.inc.update(s.dirtyInternalDeepFirst())
		flips = s.inc.flips
		out = outcome{noSolution: s.inc.noSolution(), cost: s.inc.cost}
		if out.noSolution {
			out.cost = 0
		}
	case s.inc != nil:
		// Too much of the tree is dirty: one cold sweep rebuilds every
		// memo cheaper than chasing root paths.
		s.inc.full(s.in)
		out = outcome{noSolution: s.inc.noSolution()}
		if !out.noSolution {
			out.cost = s.inc.cost
			out.replicas = s.inc.replicas()
		}
	default:
		out, err = s.solveFull(ctx)
		if err != nil {
			s.dirty.Reset()
			s.rollback(undo)
			return nil, err
		}
	}
	s.dirty.Reset()

	s.rev++
	d := Diff{Rev: s.rev, Cost: out.cost, NoSolution: out.noSolution}
	prevNoSol := s.noSolution
	if mode == "incremental" && !prevNoSol && !out.noSolution {
		// Both revisions feasible: the engine's flips are exactly the
		// replica churn; reported flags track them in O(dirty).
		for _, v := range flips {
			if s.inc.isRepl[v] {
				d.Add = append(d.Add, v)
				s.reported[v] = true
				s.nReported++
			} else {
				d.Drop = append(d.Drop, v)
				s.reported[v] = false
				s.nReported--
			}
		}
		s.noSolution = out.noSolution
		s.cost = out.cost
		s.sol = nil
	} else if mode == "incremental" {
		// A feasibility transition: reconcile reported flags against the
		// engine's in one scan.
		d.Add, d.Drop = s.reconcile(func(v int) bool { return !out.noSolution && s.inc.isRepl[v] })
		s.noSolution = out.noSolution
		s.cost = out.cost
		s.sol = nil
	} else {
		d.Add, d.Drop = s.reconcileList(out.replicas)
		s.applyOutcome(out)
	}
	sort.Ints(d.Add)
	sort.Ints(d.Drop)
	s.pushDiff(d)

	old := s.notify
	s.notify = make(chan struct{})
	close(old)

	// Manager counters are atomics: taking m.mu here (under s.mu) would
	// invert the Manager lock order and deadlock against Stats/janitor.
	s.deltas++
	m := s.m
	m.deltas.Add(1)
	m.ops.Add(uint64(len(ops)))
	if mode == "incremental" {
		m.incSolves.Add(1)
	} else {
		m.fullSolves.Add(1)
	}
	m.applyHist.Observe(time.Since(start))

	res := &ApplyResult{Diff: d, Mode: mode, AddedClients: addedClients}
	return res, nil
}

// scalarUndo is one overwritten value of a batch.
type scalarUndo struct {
	rate   bool // else capacity / removal
	remove bool
	v      int
	old    int64
}

// batchUndo is what rollback needs to restore the instance a batch
// mutated in place: the overwritten values, and the instance's tree and
// slice headers from before the batch. Joining clients only append, so
// the old headers still see exactly the old contents.
type batchUndo struct {
	scalars []scalarUndo
	prev    core.Instance
	removed []bool
}

// validateOps checks the whole batch against the current state (tracking
// ids and tombstones introduced by earlier ops in the same batch) and
// returns the number of add_client ops.
func (s *Session) validateOps(ops []Op) (adds int, err error) {
	n := s.in.Tree.Len()
	var batchRemoved map[int]bool
	virtual := n
	for i, op := range ops {
		fail := func(format string, args ...any) (int, error) {
			return 0, fmt.Errorf("session: op %d (%s): %s", i, op.Op, fmt.Sprintf(format, args...))
		}
		isClient := func(v int) bool {
			if v >= n {
				return true // batch-added vertices are always clients
			}
			return s.in.Tree.IsClient(v)
		}
		removed := func(v int) bool {
			if v < n && s.removed[v] {
				return true
			}
			return batchRemoved[v]
		}
		switch op.Op {
		case OpSetRate:
			if op.Vertex < 0 || op.Vertex >= virtual {
				return fail("vertex %d out of range [0,%d)", op.Vertex, virtual)
			}
			if !isClient(op.Vertex) {
				return fail("vertex %d is not a client", op.Vertex)
			}
			if removed(op.Vertex) {
				return fail("client %d was removed", op.Vertex)
			}
			if op.Value < 0 {
				return fail("negative rate %d", op.Value)
			}
		case OpSetCapacity:
			if op.Vertex < 0 || op.Vertex >= n {
				return fail("vertex %d out of range [0,%d)", op.Vertex, n)
			}
			if isClient(op.Vertex) {
				return fail("vertex %d is not an internal vertex", op.Vertex)
			}
			if op.Value < 0 {
				return fail("negative capacity %d", op.Value)
			}
		case OpAddClient:
			if op.Parent < 0 || op.Parent >= n || s.in.Tree.IsClient(op.Parent) {
				return fail("parent %d is not an existing internal vertex", op.Parent)
			}
			if op.Rate < 0 {
				return fail("negative rate %d", op.Rate)
			}
			if op.QoS != nil && *op.QoS < 0 && *op.QoS != core.NoQoS {
				return fail("invalid qos %d", *op.QoS)
			}
			if op.Comm != nil && *op.Comm < 0 {
				return fail("negative comm %d", *op.Comm)
			}
			if op.Bandwidth != nil && *op.Bandwidth < 0 && *op.Bandwidth != core.NoBandwidth {
				return fail("invalid bandwidth %d", *op.Bandwidth)
			}
			adds++
			virtual++
		case OpRemoveClient:
			if op.Vertex < 0 || op.Vertex >= virtual {
				return fail("vertex %d out of range [0,%d)", op.Vertex, virtual)
			}
			if !isClient(op.Vertex) {
				return fail("vertex %d is not a client", op.Vertex)
			}
			if removed(op.Vertex) {
				return fail("client %d was already removed", op.Vertex)
			}
			if batchRemoved == nil {
				batchRemoved = map[int]bool{}
			}
			batchRemoved[op.Vertex] = true
		default:
			return fail("unknown op %q (want set_rate, set_capacity, add_client or remove_client)", op.Op)
		}
	}
	return adds, nil
}

// applyOps mutates the instance in place, marking the root path of every
// vertex the batch touches, and returns the undo log. The add_client ops
// of the batch are spliced into the tree in one pass (existing ids are
// stable: newcomers append) and their parameters appended to the vectors
// first, so later ops in the batch can target the new ids.
func (s *Session) applyOps(ops []Op, adds int) (undo batchUndo, addedClients []int) {
	in := s.in
	undo.prev, undo.removed = *in, s.removed
	if adds > 0 {
		addedClients = s.addClients(ops, adds)
	}
	undo.scalars = make([]scalarUndo, 0, len(ops))
	added := 0
	for _, op := range ops {
		switch op.Op {
		case OpSetRate:
			undo.scalars = append(undo.scalars, scalarUndo{rate: true, v: op.Vertex, old: in.R[op.Vertex]})
			in.R[op.Vertex] = op.Value
			s.dirty.MarkPath(op.Vertex)
		case OpSetCapacity:
			undo.scalars = append(undo.scalars, scalarUndo{v: op.Vertex, old: in.W[op.Vertex]})
			in.W[op.Vertex] = op.Value
			s.dirty.MarkPath(op.Vertex)
		case OpRemoveClient:
			undo.scalars = append(undo.scalars, scalarUndo{remove: true, v: op.Vertex, old: in.R[op.Vertex]})
			in.R[op.Vertex] = 0
			s.removed[op.Vertex] = true
			s.nRemoved++
			s.dirty.MarkPath(op.Vertex)
		case OpAddClient:
			s.dirty.MarkPath(addedClients[added])
			added++
		}
	}
	return undo, addedClients
}

// addClients grows the session by the batch's add_client ops: one tree
// splice, then every per-vertex array appended in place (amortized). The
// optional QoS/comm/bandwidth vectors are materialized with their
// unconstrained defaults the first time a newcomer sets one.
func (s *Session) addClients(ops []Op, adds int) []int {
	in := s.in
	n := in.Tree.Len()
	parents := make([]int, 0, adds)
	for _, op := range ops {
		if op.Op != OpAddClient {
			continue
		}
		parents = append(parents, op.Parent)
		if op.QoS != nil && in.Q == nil {
			in.Q = filled(n, core.NoQoS)
		}
		if op.Comm != nil && in.Comm == nil {
			in.Comm = filled(n, int64(1)) // nil Comm counts every link as one hop
		}
		if op.Bandwidth != nil && in.BW == nil {
			in.BW = filled(n, core.NoBandwidth)
		}
	}
	t, err := in.Tree.WithClients(parents)
	if err != nil {
		// validateOps admits only existing internal parents, so the
		// splice cannot fail.
		panic(fmt.Sprintf("session: client splice invalid: %v", err))
	}
	added := make([]int, 0, adds)
	for _, op := range ops {
		if op.Op != OpAddClient {
			continue
		}
		added = append(added, n+len(added))
		in.R = append(in.R, op.Rate)
		in.W = append(in.W, 0)
		in.S = append(in.S, 0)
		if in.Q != nil {
			in.Q = append(in.Q, deref(op.QoS, core.NoQoS))
		}
		if in.Comm != nil {
			in.Comm = append(in.Comm, deref(op.Comm, 1))
		}
		if in.BW != nil {
			in.BW = append(in.BW, deref(op.Bandwidth, core.NoBandwidth))
		}
	}
	in.Tree = t
	s.removed = resized(s.removed, t.Len())
	s.reported = resized(s.reported, t.Len())
	s.dirty.Rebind(t)
	if s.inc != nil {
		s.inc.grow(t.Len())
	}
	return added
}

func filled[T any](n int, v T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func deref[T any](p *T, def T) T {
	if p == nil {
		return def
	}
	return *p
}

// rollback restores the instance a failed batch mutated: overwritten
// values in reverse order, then the tree and the slice headers from
// before the batch. The caller has reset the dirty set.
func (s *Session) rollback(undo batchUndo) {
	in := s.in
	for i := len(undo.scalars) - 1; i >= 0; i-- {
		u := undo.scalars[i]
		switch {
		case u.rate:
			in.R[u.v] = u.old
		case u.remove:
			in.R[u.v] = u.old
			s.removed[u.v] = false
			s.nRemoved--
		default:
			in.W[u.v] = u.old
		}
	}
	*in = undo.prev
	s.removed = undo.removed
	s.dirty.Rebind(in.Tree)
}

// dirtyInternalDeepFirst returns the dirty internal vertices ordered
// children before parents (depth descending — sufficient because the
// dirty set is a union of root paths, so equal-depth members are
// unrelated).
func (s *Session) dirtyInternalDeepFirst() []int {
	t := s.in.Tree
	verts := s.dirty.Vertices()
	out := make([]int, 0, len(verts))
	for _, v := range verts {
		if t.IsInternal(v) {
			out = append(out, v)
		}
	}
	slices.SortFunc(out, func(a, b int) int { return cmp.Compare(t.Depth(b), t.Depth(a)) })
	return out
}

// reconcile diffs the reported replica flags against now(v) over every
// internal vertex, updating them in place. O(internal) — used by full
// solves and feasibility transitions, whose solve already paid O(n).
func (s *Session) reconcile(now func(v int) bool) (add, drop []int) {
	for _, v := range s.in.Tree.Internal() {
		cur := now(v)
		if cur == s.reported[v] {
			continue
		}
		if cur {
			add = append(add, v)
			s.nReported++
		} else {
			drop = append(drop, v)
			s.nReported--
		}
		s.reported[v] = cur
	}
	return add, drop
}

// reconcileList is reconcile against a sorted replica list (nil for an
// infeasible outcome). It does not update the flags — applyOutcome
// rewrites them wholesale right after.
func (s *Session) reconcileList(replicas []int) (add, drop []int) {
	in := make(map[int]bool, len(replicas))
	for _, v := range replicas {
		in[v] = true
		if !s.reported[v] {
			add = append(add, v)
		}
	}
	for _, v := range s.in.Tree.Internal() {
		if v < len(s.reported) && s.reported[v] && !in[v] {
			drop = append(drop, v)
		}
	}
	return add, drop
}

// replicasLocked returns the reported replica set, ascending. Caller
// holds the lock.
func (s *Session) replicasLocked() []int {
	out := make([]int, 0, s.nReported)
	for _, v := range s.in.Tree.Internal() {
		if s.reported[v] {
			out = append(out, v)
		}
	}
	return out
}

// pushDiff appends a diff to the retention ring, dropping the oldest
// revision once full. Caller holds the lock.
func (s *Session) pushDiff(d Diff) {
	keep := s.m.opts.DiffRetention
	if s.diffs == nil {
		s.diffs = make([]Diff, keep)
	}
	if s.diffLen == keep {
		s.diffs[s.diffHead] = d
		s.diffHead = (s.diffHead + 1) % keep
		s.firstRev++
		return
	}
	s.diffs[(s.diffHead+s.diffLen)%keep] = d
	s.diffLen++
}

// diffAt returns the retained diff for revision r. Caller holds the lock.
func (s *Session) diffAt(r uint64) (Diff, bool) {
	if r < s.firstRev || r >= s.firstRev+uint64(s.diffLen) {
		return Diff{}, false
	}
	i := (s.diffHead + int(r-s.firstRev)) % s.m.opts.DiffRetention
	return s.diffs[i], true
}
