package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

type keyCase struct {
	name   string
	in     *core.Instance
	solver string
	opt    Options
}

// goldenKeyCases covers every section of the key: shape, the three
// mandatory vectors, present/absent/empty optional vectors, solver-name
// folding, the bound budget and the per-object vectors.
func goldenKeyCases() []keyCase {
	constrained := core.Figure1('b')
	n := constrained.Tree.Len()
	constrained.Q = make([]int, n)
	constrained.Comm = make([]int64, n)
	constrained.BW = make([]int64, n)
	for v := 0; v < n; v++ {
		constrained.Q[v] = core.NoQoS
		constrained.Comm[v] = int64(v + 1)
		constrained.BW[v] = core.NoBandwidth
	}
	constrained.Q[n-1] = 2
	constrained.BW[1] = 7
	emptyQoS := core.Figure1('a')
	emptyQoS.Q = []int{}
	return []keyCase{
		{"fig1a", core.Figure1('a'), "mb", Options{}},
		{"fig1a-folded-name", core.Figure1('a'), "  MB ", Options{}},
		{"fig1b", core.Figure1('b'), "mg", Options{}},
		{"fig1c-bound", core.Figure1('c'), "lp-refined", Options{BoundNodes: 400}},
		{"fig1b-qos-comm-bw", constrained, "cbu", Options{}},
		{"fig1a-empty-qos", emptyQoS, "mb", Options{}},
		{"fig1a-objects", core.Figure1('a'), "mo-greedy", Options{Objects: []ObjectVectors{
			{R: []int64{0, 0, 1}, S: []int64{1, 1, 0}},
			{R: []int64{0, 0, 3}, S: []int64{2, 5, 0}},
		}}},
	}
}

// TestKeyGolden pins the cache-key digests byte for byte. The cluster
// route cache and the batch tree intern compare keys computed by
// different binaries, so any change to the encoding is a protocol
// break, not a refactor. The digests were captured from the original
// streaming-hash implementation (kept below as referenceKey).
func TestKeyGolden(t *testing.T) {
	want := map[string]string{
		"fig1a":             "fa160b9b1ff8d9f8a851cbb1392fe67769850036ae873cb76159adabc1da19f1",
		"fig1a-folded-name": "fa160b9b1ff8d9f8a851cbb1392fe67769850036ae873cb76159adabc1da19f1",
		"fig1b":             "4713031b66eddd691decca2fdcbc50647ccf3a876e4517eb33aad4de33e5bb30",
		"fig1c-bound":       "12f50abf3082f18eab1c5597eddba9f31a51bc9001743e4a025ca2b5972d917c",
		"fig1b-qos-comm-bw": "ee6683a4c23fdd0df3caeb1ecb964aa7cb751135cdffa853d16458e363ed86fd",
		"fig1a-empty-qos":   "bf3edcfce257a2a5e35853f635f292949906f6500767a95fe0a28a8fd851814a",
		"fig1a-objects":     "5c67d253c0e58d0346472587b11e9868344c51893651b7e2e47adf08f6493790",
	}
	for _, c := range goldenKeyCases() {
		if got := Key(c.in, c.solver, c.opt); got != want[c.name] {
			t.Errorf("Key(%s) = %s, want %s", c.name, got, want[c.name])
		}
	}
	wantShape := map[byte]string{
		'a': "427dbe97cb50b86096b345bea06711bd51127436784dd1207e411c60621a4b78",
		'b': "22aa97abe0f60081a33345329e730cc2bb08530994adff780e8cfab8425144f2",
		'c': "427dbe97cb50b86096b345bea06711bd51127436784dd1207e411c60621a4b78",
	}
	for v, w := range wantShape {
		in := core.Figure1(v)
		if got := ShapeKey(in.Tree.Parents(), in.Tree.ClientFlags()); got != w {
			t.Errorf("ShapeKey(Figure1 %c) = %s, want %s", v, got, w)
		}
	}
	// The shape section of a nil topology (a batch body without
	// parents) keeps its absence marker.
	if got, want := ShapeKey(nil, nil), referenceShapeKey(nil, nil); got != want {
		t.Errorf("ShapeKey(nil, nil) = %s, want %s", got, want)
	}
}

// TestKeyMatchesReference compares Key and ShapeKey with the original
// streaming encoding on generated instances, including ones whose
// encoding outgrows the pooled buffer cap.
func TestKeyMatchesReference(t *testing.T) {
	sizes := []int{15, 400, 4000}
	if !testing.Short() {
		sizes = append(sizes, 40000) // > maxPooledKeyBuf bytes
	}
	for i, size := range sizes {
		in := gen.Instance(gen.Config{Internal: size / 3, Clients: size - size/3, QoSRange: 3, BWFactor: 0.5}, int64(i+1))
		for _, c := range []keyCase{
			{"plain", in, "mb", Options{}},
			{"bound", in, "LP-Refined", Options{BoundNodes: 25}},
		} {
			if got, want := Key(c.in, c.solver, c.opt), referenceKey(c.in, c.solver, c.opt); got != want {
				t.Errorf("size %d %s: Key = %s, reference %s", size, c.name, got, want)
			}
		}
		p, f := in.Tree.Parents(), in.Tree.ClientFlags()
		if got, want := ShapeKey(p, f), referenceShapeKey(p, f); got != want {
			t.Errorf("size %d: ShapeKey = %s, reference %s", size, got, want)
		}
	}
}

// TestKeyAllocs pins Key's allocations independently of the instance
// size: one pooled buffer, one digest, one hex string.
func TestKeyAllocs(t *testing.T) {
	for _, size := range []int{30, 400, 4000} {
		in := gen.Instance(gen.Config{Internal: size / 2, Clients: size - size/2}, 3)
		Key(in, "mb", Options{}) // warm the pool
		allocs := testing.AllocsPerRun(200, func() { Key(in, "mb", Options{}) })
		if allocs > 4 {
			t.Errorf("Key at %d vertices: %.1f allocs, want ≤ 4", size, allocs)
		}
	}
}

// referenceKey is the original Key: one hash.Write per 8-byte element.
func referenceKey(in *core.Instance, solver string, opt Options) string {
	h := sha256.New()
	refShape(h, in.Tree.Parents(), in.Tree.ClientFlags())
	refTag(h, "r")
	refInt64s(h, in.R)
	refTag(h, "w")
	refInt64s(h, in.W)
	refTag(h, "s")
	refInt64s(h, in.S)
	refTag(h, "q")
	refInts(h, in.Q)
	refTag(h, "comm")
	refInt64s(h, in.Comm)
	refTag(h, "bw")
	refInt64s(h, in.BW)
	refTag(h, "solver")
	refTag(h, strings.ToLower(strings.TrimSpace(solver)))
	refTag(h, "opts")
	refUint64(h, uint64(opt.BoundNodes))
	if len(opt.Objects) > 0 {
		refTag(h, "objects")
		refUint64(h, uint64(len(opt.Objects)))
		for _, ov := range opt.Objects {
			refInt64s(h, ov.R)
			refInt64s(h, ov.S)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func referenceShapeKey(parents []int, isClient []bool) string {
	h := sha256.New()
	refShape(h, parents, isClient)
	return hex.EncodeToString(h.Sum(nil))
}

func refShape(h hash.Hash, parents []int, isClient []bool) {
	refTag(h, "tree")
	refInts(h, parents)
	refUint64(h, uint64(len(isClient)))
	for _, x := range isClient {
		if x {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

func refTag(h hash.Hash, tag string) {
	refUint64(h, uint64(len(tag)))
	h.Write([]byte(tag))
}

func refUint64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func refInt64s(h hash.Hash, v []int64) {
	if v == nil {
		refUint64(h, ^uint64(0))
		return
	}
	refUint64(h, uint64(len(v)))
	for _, x := range v {
		refUint64(h, uint64(x))
	}
}

func refInts(h hash.Hash, v []int) {
	if v == nil {
		refUint64(h, ^uint64(0))
		return
	}
	refUint64(h, uint64(len(v)))
	for _, x := range v {
		refUint64(h, uint64(int64(x)))
	}
}
