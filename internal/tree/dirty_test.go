package tree

import "testing"

// buildDirtyFixture: root 0 with two internal children (1, 2); 1 has clients
// 3, 4; 2 has internal child 5 with client 6.
func buildDirtyFixture(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	r := b.AddRoot()
	n1 := b.AddNode(r)
	n2 := b.AddNode(r)
	b.AddClient(n1)
	b.AddClient(n1)
	n5 := b.AddNode(n2)
	b.AddClient(n5)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDirtySetMarkPath(t *testing.T) {
	tr := buildDirtyFixture(t)
	d := NewDirtySet(tr)
	if d.Len() != 0 || d.InternalFraction() != 0 {
		t.Fatalf("fresh set not empty: len=%d frac=%v", d.Len(), d.InternalFraction())
	}

	d.MarkPath(6) // client under 5 under 2 under 0
	for _, v := range []int{6, 5, 2, 0} {
		if !d.IsDirty(v) {
			t.Errorf("vertex %d should be dirty", v)
		}
	}
	for _, v := range []int{1, 3, 4} {
		if d.IsDirty(v) {
			t.Errorf("vertex %d should be clean", v)
		}
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	// 3 of 4 internal vertices dirty (0, 2, 5; clean: 1).
	if got, want := d.InternalFraction(), 0.75; got != want {
		t.Fatalf("InternalFraction = %v, want %v", got, want)
	}

	// Marking a sibling path stops at the shared ancestor: only 3 and 1
	// are new.
	d.MarkPath(3)
	if d.Len() != 6 {
		t.Fatalf("Len after second mark = %d, want 6", d.Len())
	}
	// Re-marking is a no-op.
	d.MarkPath(6)
	if d.Len() != 6 {
		t.Fatalf("Len after re-mark = %d, want 6", d.Len())
	}
}

func TestDirtySetPathInvariant(t *testing.T) {
	tr := buildDirtyFixture(t)
	d := NewDirtySet(tr)
	d.MarkPath(5)
	d.MarkPath(4)
	for _, v := range d.Vertices() {
		if p := tr.Parent(v); p != None && !d.IsDirty(p) {
			t.Fatalf("vertex %d dirty but parent %d clean", v, p)
		}
	}
}

func TestDirtySetReset(t *testing.T) {
	tr := buildDirtyFixture(t)
	d := NewDirtySet(tr)
	d.MarkPath(6)
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", d.Len())
	}
	for v := 0; v < tr.Len(); v++ {
		if d.IsDirty(v) {
			t.Fatalf("vertex %d dirty after Reset", v)
		}
	}
	d.MarkPath(4)
	if !d.IsDirty(4) || !d.IsDirty(1) || !d.IsDirty(0) || d.IsDirty(2) {
		t.Fatal("marking after Reset broken")
	}
}

func TestDirtySetGenerationWrap(t *testing.T) {
	tr := buildDirtyFixture(t)
	d := NewDirtySet(tr)
	d.MarkPath(6)
	d.gen = ^uint32(0) // force the wrap on the next Reset
	d.Reset()
	if d.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", d.gen)
	}
	for v := 0; v < tr.Len(); v++ {
		if d.IsDirty(v) {
			t.Fatalf("vertex %d dirty after wrap", v)
		}
	}
}

// TestDirtySetRebind: rebinding to a spliced tree keeps the marks, covers
// the new ids, and the path invariant holds across both trees' vertices.
func TestDirtySetRebind(t *testing.T) {
	tr := buildDirtyFixture(t)
	d := NewDirtySet(tr)
	d.MarkPath(3) // 3 -> 1 -> 0
	grown, err := tr.WithClients([]int{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Rebind(grown)
	if !d.IsDirty(3) || !d.IsDirty(1) || !d.IsDirty(0) || d.IsDirty(7) || d.IsDirty(8) {
		t.Fatal("rebind lost or invented marks")
	}
	d.MarkPath(7) // the newcomer under 5: 7 -> 5 -> 2, stops at dirty 0
	for _, v := range []int{7, 5, 2} {
		if !d.IsDirty(v) {
			t.Errorf("vertex %d should be dirty", v)
		}
	}
	if d.Len() != 6 {
		t.Fatalf("Len = %d, want 6", d.Len())
	}
	if got, want := d.InternalFraction(), 4.0/4.0; got != want {
		t.Fatalf("InternalFraction = %v, want %v", got, want)
	}
	d.Reset()
	d.Rebind(tr)
	d.MarkPath(4)
	if !d.IsDirty(4) || !d.IsDirty(1) || d.IsDirty(2) {
		t.Fatal("rebinding back to the original tree broken")
	}
}
