package tree_test

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/tree"
)

// TestChildrenMatchAppendBuild checks the counted children slab against
// the per-parent append build it replaced: same lists in declared
// order, nil for leaves.
func TestChildrenMatchAppendBuild(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		cfg := gen.Config{Internal: 5 + int(seed)*17, Clients: 7 + int(seed)*29}
		switch seed % 3 {
		case 1:
			cfg.Attach = gen.AttachDeep
		case 2:
			cfg.Attach = gen.AttachUniform
		}
		tr := gen.Instance(cfg, seed).Tree
		want := make([][]int, tr.Len())
		for v, p := range tr.Parents() {
			if p != tree.None {
				want[p] = append(want[p], v)
			}
		}
		for v := 0; v < tr.Len(); v++ {
			if got := tr.Children(v); !reflect.DeepEqual(got, want[v]) {
				t.Fatalf("seed %d: Children(%d) = %v, want %v", seed, v, got, want[v])
			}
		}
	}
}

// fromParentsAllocs is the fixed allocation count of FromParents: the
// Tree itself and its per-vertex arrays, whatever the tree size.
const fromParentsAllocs = 17

func TestFromParentsAllocsConstant(t *testing.T) {
	for _, size := range []int{30, 400, 4000} {
		tr := gen.Instance(gen.Config{Internal: size / 3, Clients: size - size/3}, 5).Tree
		parents, flags := tr.Parents(), tr.ClientFlags()
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := tree.FromParents(parents, flags); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != fromParentsAllocs {
			t.Errorf("FromParents at %d vertices: %.0f allocs, want %d", size, allocs, fromParentsAllocs)
		}
	}
}
