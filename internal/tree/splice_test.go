package tree

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkWithClients splices adds into the tree built from (parents,
// isClient) and requires the result to equal a FromParents rebuild of the
// extended arrays, field for field; the original tree must not change.
func checkWithClients(t *testing.T, parents []int, isClient []bool, adds []int) {
	t.Helper()
	tr, err := FromParents(parents, isClient)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := FromParents(parents, isClient)
	got, err := tr.WithClients(adds)
	if err != nil {
		t.Fatalf("WithClients(%v) on parents %v: %v", adds, parents, err)
	}
	flags := append([]bool(nil), isClient...)
	for range adds {
		flags = append(flags, true)
	}
	want, err := FromParents(append(append([]int(nil), parents...), adds...), flags)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WithClients(%v) on parents %v flags %v:\n got %+v\nwant %+v", adds, parents, isClient, got, want)
	}
	if !reflect.DeepEqual(tr, before) {
		t.Fatalf("WithClients(%v) modified the original tree", adds)
	}
}

// randomAdds draws k parents among the internal vertices of (parents,
// isClient), biased toward repeats and toward one root path so nested
// parents (and parents sharing a subtree end) are common.
func randomAdds(rng *rand.Rand, parents []int, isClient []bool, k int) []int {
	var internal []int
	for v, c := range isClient {
		if !c {
			internal = append(internal, v)
		}
	}
	adds := make([]int, 0, k)
	for len(adds) < k {
		switch r := rng.Intn(4); {
		case r == 0 && len(adds) > 0:
			adds = append(adds, adds[rng.Intn(len(adds))]) // repeated parent
		case r == 1 && len(adds) > 0:
			if p := parents[adds[rng.Intn(len(adds))]]; p != None {
				adds = append(adds, p) // nested: an ancestor of an earlier parent
			}
		default:
			adds = append(adds, internal[rng.Intn(len(internal))])
		}
	}
	return adds
}

// TestWithClientsMatchesFromParents is the seeded differential test of
// the splice: random trees, random append sets.
func TestWithClientsMatchesFromParents(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(60)
		parents, isClient := randomParents(rng, n)
		checkWithClients(t, parents, isClient, randomAdds(rng, parents, isClient, 1+rng.Intn(8)))
	}
	// Chains share subtree ends at every level: adds at several depths
	// of one path all insert at the same preorder position.
	for depth := 1; depth <= 6; depth++ {
		tr := buildChain(t, depth)
		adds := []int{depth, 0, depth / 2, depth, 0}
		checkWithClients(t, tr.parent, tr.isClient, adds)
	}
	// A lone root gains its first children.
	checkWithClients(t, []int{None}, []bool{false}, []int{0, 0, 0})
}

func TestWithClientsEmptyAndErrors(t *testing.T) {
	tr := buildDirtyFixture(t)
	if got, err := tr.WithClients(nil); err != nil || got != tr {
		t.Fatalf("WithClients(nil) = %p, %v; want the tree itself", got, err)
	}
	for _, adds := range [][]int{{-1}, {tr.Len()}, {0, 3}} { // 3 is a client
		if _, err := tr.WithClients(adds); err == nil {
			t.Errorf("WithClients(%v) accepted", adds)
		}
	}
}

// FuzzWithClients draws a random tree and append set from the fuzzer's
// bytes and checks the splice against a FromParents rebuild.
func FuzzWithClients(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3))
	f.Add(int64(7), uint8(2), uint8(1))
	f.Add(int64(42), uint8(60), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, size, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%80
		parents, isClient := randomParents(rng, n)
		checkWithClients(t, parents, isClient, randomAdds(rng, parents, isClient, 1+int(k)%16))
	})
}
