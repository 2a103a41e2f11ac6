package session

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/heuristics"
	"repro/internal/tree"
)

// shadow replays delta batches the naive way — parent arrays rebuilt
// with tree.FromParents, vectors appended op by op — as the reference
// for the session's in-place splice and growth.
type shadow struct {
	parents []int
	flags   []bool
	in      *core.Instance // vectors only; Tree is rebuilt on demand
}

func newShadow(in *core.Instance) *shadow {
	return &shadow{parents: in.Tree.Parents(), flags: in.Tree.ClientFlags(), in: copyInstance(in)}
}

func (sh *shadow) apply(ops []Op) {
	in := sh.in
	for _, op := range ops {
		switch op.Op {
		case OpSetRate:
			in.R[op.Vertex] = op.Value
		case OpSetCapacity:
			in.W[op.Vertex] = op.Value
		case OpRemoveClient:
			in.R[op.Vertex] = 0
		case OpAddClient:
			n := len(sh.parents)
			if op.QoS != nil && in.Q == nil {
				in.Q = filled(n, core.NoQoS)
			}
			if op.Comm != nil && in.Comm == nil {
				in.Comm = filled(n, int64(1))
			}
			if op.Bandwidth != nil && in.BW == nil {
				in.BW = filled(n, core.NoBandwidth)
			}
			sh.parents = append(sh.parents, op.Parent)
			sh.flags = append(sh.flags, true)
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
	}
}

// check requires the session's instance to equal the naive replay,
// tree included, field for field.
func (sh *shadow) check(t *testing.T, s *Session, step int) {
	t.Helper()
	tr, err := tree.FromParents(sh.parents, sh.flags)
	if err != nil {
		t.Fatal(err)
	}
	want := *sh.in
	want.Tree = tr
	if got := s.InstanceCopy(); !reflect.DeepEqual(got, &want) {
		t.Fatalf("step %d: session instance differs from a FromParents replay of the ops", step)
	}
}

// topoOps builds a batch that adds 1–4 clients — under one random
// internal vertex and its ancestors (nested parents, sometimes repeated),
// some carrying qos/comm/bandwidth — then targets some newcomers with
// set_rate or remove_client and touches a few existing vertices. The QoS
// bounds are loose enough that every backend's placement stays valid.
func topoOps(rng *rand.Rand, tr *tree.Tree, removed map[int]bool) []Op {
	n := tr.Len()
	internal := tr.Internal()
	var ops []Op
	v := internal[rng.Intn(len(internal))]
	adds := 1 + rng.Intn(4)
	for i := 0; i < adds; i++ {
		op := Op{Op: OpAddClient, Parent: v, Rate: int64(1 + rng.Intn(40))}
		switch rng.Intn(4) {
		case 0:
			q := 500 + rng.Intn(500)
			op.QoS = &q
		case 1:
			c := int64(1 + rng.Intn(3))
			op.Comm = &c
		case 2:
			bw := int64(1000 + rng.Intn(1000))
			op.Bandwidth = &bw
		}
		ops = append(ops, op)
		if p := tr.Parent(v); p != tree.None && rng.Intn(2) == 0 {
			v = p // the next newcomer hangs higher on the same root path
		}
	}
	for id := n; id < n+adds; id++ {
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, Op{Op: OpSetRate, Vertex: id, Value: int64(rng.Intn(60))})
		case 1:
			ops = append(ops, Op{Op: OpRemoveClient, Vertex: id})
			removed[id] = true
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		if c := tr.Clients()[rng.Intn(tr.NumClients())]; !removed[c] {
			ops = append(ops, Op{Op: OpSetRate, Vertex: c, Value: int64(rng.Intn(60))})
		}
		w := internal[rng.Intn(len(internal))]
		ops = append(ops, Op{Op: OpSetCapacity, Vertex: w, Value: int64(20 + rng.Intn(200))})
	}
	return ops
}

// foldDiffs replays the whole watch history and returns the replica set
// its add/drop diffs fold to.
func foldDiffs(t *testing.T, s *Session) []int {
	t.Helper()
	diffs := collectDiffs(t, s, 0, true, int(s.Status().Rev))
	set := map[int]bool{}
	for _, d := range diffs {
		for _, v := range d.Add {
			set[v] = true
		}
		for _, v := range d.Drop {
			delete(set, v)
		}
	}
	var out []int
	for _, v := range s.InstanceCopy().Tree.Internal() {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestSessionTopologyEquivalence drives add_client-heavy batches on a
// tree large enough that they stay under DirtyThreshold, so mg and cbu
// take the incremental path; utd re-solves cold. After every batch the
// session's instance must equal a naive FromParents replay and its
// placement a cold solve; at the end the folded watch history must give
// the cold replica set.
func TestSessionTopologyEquivalence(t *testing.T) {
	for _, name := range []string{"mg", "cbu", "utd"} {
		t.Run(name, func(t *testing.T) {
			incremental := 0
			for seed := int64(1); seed <= 3; seed++ {
				m := newTestManager(t, Options{})
				in := gen.Instance(gen.Config{Internal: 300, Clients: 900, Lambda: 0.5, Heterogeneous: true}, seed)
				s, err := m.Create(context.Background(), in, name, core.Multiple)
				if err != nil {
					t.Fatal(err)
				}
				sh := newShadow(in)
				rng := rand.New(rand.NewSource(seed * 31))
				removed := map[int]bool{}
				for step := 1; step <= 25; step++ {
					ops := topoOps(rng, s.InstanceCopy().Tree, removed)
					res, err := s.Apply(context.Background(), ops)
					if err != nil {
						t.Fatalf("seed %d step %d: apply %+v: %v", seed, step, ops, err)
					}
					if res.Mode == "incremental" {
						incremental++
					}
					sh.apply(ops)
					sh.check(t, s, step)
					checkEquivalence(t, s, name, step)
				}
				want := []int(nil)
				if sol, noSol := coldSolve(t, name, s.InstanceCopy()); !noSol {
					want = sol.Replicas()
				}
				if got := foldDiffs(t, s); !slices.Equal(got, want) {
					t.Fatalf("seed %d: folded watch replicas %v, cold %v", seed, got, want)
				}
			}
			t.Logf("%d of 75 topology batches incremental", incremental)
			if name != "utd" && incremental == 0 {
				t.Fatal("no topology batch took the incremental path")
			}
		})
	}
}

// TestSessionTopologyRollback: a utd backend fault on a batch that adds
// clients (materializing the QoS vector, retargeting a newcomer and
// removing an old client) leaves the session exactly at its previous
// revision; the same batch then applies cleanly.
func TestSessionTopologyRollback(t *testing.T) {
	var fail bool
	resolve := func(name string, p core.Policy) (Solver, error) {
		return Solver{
			Name: "flaky-utd", Policy: core.Upwards,
			Solve: func(_ context.Context, in *core.Instance) (*core.Solution, bool, error) {
				if fail {
					return nil, false, errors.New("backend fault")
				}
				sol, err := heuristics.UTD(in)
				if errors.Is(err, heuristics.ErrNoSolution) {
					return nil, true, nil
				}
				return sol, false, err
			},
		}, nil
	}
	m := newTestManager(t, Options{Resolve: resolve})
	in := gen.Instance(gen.Config{Internal: 20, Clients: 50, Lambda: 0.4}, 6)
	s, err := m.Create(context.Background(), in, "flaky-utd", core.Upwards)
	if err != nil {
		t.Fatal(err)
	}
	internal, clients := in.Tree.Internal(), in.Tree.Clients()
	if _, err := s.Apply(context.Background(), []Op{{Op: OpAddClient, Parent: internal[3], Rate: 4}}); err != nil {
		t.Fatal(err)
	}
	before, beforeSt, beforeSol := s.InstanceCopy(), s.Status(), s.Replicas()
	n := before.Tree.Len()
	q := 900
	batch := []Op{
		{Op: OpAddClient, Parent: internal[5], Rate: 7, QoS: &q},
		{Op: OpSetRate, Vertex: n, Value: 11},
		{Op: OpAddClient, Parent: internal[0], Rate: 2},
		{Op: OpRemoveClient, Vertex: n + 1},
		{Op: OpRemoveClient, Vertex: clients[4]},
		{Op: OpSetCapacity, Vertex: internal[2], Value: 1},
	}
	fail = true
	if _, err := s.Apply(context.Background(), batch); !errors.Is(err, ErrSolverFault) {
		t.Fatalf("faulting topology batch: err %v, want ErrSolverFault", err)
	}
	if got := s.InstanceCopy(); !reflect.DeepEqual(got, before) {
		t.Fatal("failed topology batch mutated the instance")
	}
	if st := s.Status(); st != beforeSt {
		t.Fatalf("failed topology batch changed the status: %+v, was %+v", st, beforeSt)
	}
	if got := s.Replicas(); !reflect.DeepEqual(got, beforeSol) {
		t.Fatalf("failed topology batch changed the replicas: %v, was %v", got, beforeSol)
	}
	fail = false
	res, err := s.Apply(context.Background(), batch)
	if err != nil {
		t.Fatalf("session unusable after rollback: %v", err)
	}
	if res.Rev != beforeSt.Rev+1 || !reflect.DeepEqual(res.AddedClients, []int{n, n + 1}) {
		t.Fatalf("retried batch: rev %d added %v, want rev %d added [%d %d]", res.Rev, res.AddedClients, beforeSt.Rev+1, n, n+1)
	}
	sh := newShadow(before)
	sh.apply(batch)
	sh.check(t, s, 1)
	checkEquivalence(t, s, "utd", 1)
}

// TestTopologyApplyAllocs pins the allocation count of an incremental
// add_client + remove_client batch on a 10^5-vertex session: the tree
// splice and the session bookkeeping allocate a fixed handful of
// objects, and the per-vertex state grows amortized. Rebuilding the tree
// or re-sweeping the memos would show up as hundreds of thousands.
func TestTopologyApplyAllocs(t *testing.T) {
	const maxAllocs = 40
	in := gen.Instance(gen.Config{Internal: 20000, Clients: 80000, Lambda: 0.1, Attach: gen.AttachUniform}, 3)
	internal, clients := in.Tree.Internal(), in.Tree.Clients()
	for _, name := range []string{"mg", "cbu"} {
		m := newTestManager(t, Options{})
		s, err := m.Create(context.Background(), in, name, core.Multiple)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(40, func() {
			i++
			res, err := s.Apply(context.Background(), []Op{
				{Op: OpAddClient, Parent: internal[i*7919%len(internal)], Rate: 5},
				{Op: OpRemoveClient, Vertex: clients[i]},
			})
			if err != nil || res.Mode != "incremental" {
				t.Fatalf("apply: mode %v, err %v", res, err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s: topology batch at 10^5 vertices made %.0f allocs, want <= %d", name, allocs, maxAllocs)
		}
	}
}

// TestFullSweepAfterAddAllocs: a batch that adds a client and crosses
// DirtyThreshold sweeps every memo, and the sweep reuses them in place
// even though the tree just grew — no per-vertex allocation.
func TestFullSweepAfterAddAllocs(t *testing.T) {
	const maxAllocs = 48
	m := newTestManager(t, Options{DirtyThreshold: 1e-9})
	in := gen.Instance(gen.Config{Internal: 1000, Clients: 3000, Lambda: 0.4}, 3)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	internal := in.Tree.Internal()
	i := 0
	allocs := testing.AllocsPerRun(40, func() {
		i++
		res, err := s.Apply(context.Background(), []Op{{Op: OpAddClient, Parent: internal[i*7919%len(internal)], Rate: 5}})
		if err != nil || res.Mode != "full" {
			t.Fatalf("apply: %+v, err %v", res, err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("threshold-fallback sweep after add_client made %.0f allocs, want <= %d", allocs, maxAllocs)
	}
	checkEquivalence(t, s, "mg", 1)
}
