package session

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// BenchmarkSessionApplyDelta measures the steady-state cost of one delta
// batch through a live mg session — validate, mutate, dirty the root
// paths, incremental re-solve, diff. The leaves=N cases apply one
// set_rate across tree sizes from 10³ to 10⁶ leaves; topology/ applies
// an add_client + remove_client pair, which splices a leaf into the tree
// (one linear pass over its arrays) before the same incremental
// re-solve. The 1e3–1e5 sizes and the topology case are held to
// BENCH_baseline.json by the CI regression gate (cmd/benchgate); 1e6
// runs in the smoke lane only, pinning that per-delta work stays
// near-logarithmic in tree size rather than linear (a cold re-solve per
// delta would be).
func BenchmarkSessionApplyDelta(b *testing.B) {
	for _, leaves := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			s, in := benchSession(b, leaves)
			clients := in.Tree.Clients()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := Op{
					Op:     OpSetRate,
					Vertex: clients[i%len(clients)],
					Value:  int64(i%47 + 1),
				}
				if _, err := s.Apply(context.Background(), []Op{op}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("topology/leaves=100000", func(b *testing.B) {
		s, in := benchSession(b, 100_000)
		internal, clients := in.Tree.Internal(), in.Tree.Clients()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops := []Op{
				{Op: OpAddClient, Parent: internal[i*7919%len(internal)], Rate: int64(i%47 + 1)},
				{Op: OpRemoveClient, Vertex: clients[i%len(clients)]},
			}
			if _, err := s.Apply(context.Background(), ops); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchSession(b *testing.B, leaves int) (*Session, *core.Instance) {
	b.Helper()
	in := gen.Instance(gen.Config{
		Internal: leaves / 4,
		Clients:  leaves,
		Lambda:   0.4,
	}, 7)
	m := NewManager(Options{Resolve: testResolver})
	b.Cleanup(m.Close)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		b.Fatal(err)
	}
	return s, in
}
