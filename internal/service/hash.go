package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/tree"
)

// keyBufs recycles the byte buffers keys are encoded into. Buffers that
// grew past maxPooledKeyBuf (the keys of ~30k-vertex instances and up)
// are dropped after use rather than pinned in the pool.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledKeyBuf = 1 << 20

// Key returns the canonical cache key of a request: a SHA-256 over a
// deterministic binary encoding of the tree shape, every parameter
// vector (including absence of the optional QoS/Comm/BW vectors), the
// canonical solver name, and the result-affecting options. Two requests
// with equal keys are guaranteed to describe the same computation, so
// the cache may serve one's result for the other.
//
// The shape section (parents + client flags) is the same encoding as
// ShapeKey, so the tree-interning cache of the batch path and the
// solution cache agree on what "same topology" means. The whole stream
// is appended to one pooled buffer and hashed with a single Sum256.
func Key(in *core.Instance, solver string, opt Options) string {
	n := in.Tree.Len()
	bp := keyBufs.Get().(*[]byte)
	// One growth at most: room for the parents, up to six parameter
	// vectors and the object vectors at 8 bytes an element, the client
	// flags, and the tags.
	b := slices.Grow((*bp)[:0], 8*(7*n+2*n*len(opt.Objects)+32)+n+len(solver))
	b = appendTreeShape(b, in.Tree)
	b = appendTag(b, "r")
	b = appendInt64s(b, in.R)
	b = appendTag(b, "w")
	b = appendInt64s(b, in.W)
	b = appendTag(b, "s")
	b = appendInt64s(b, in.S)
	b = appendTag(b, "q")
	b = appendInts(b, in.Q)
	b = appendTag(b, "comm")
	b = appendInt64s(b, in.Comm)
	b = appendTag(b, "bw")
	b = appendInt64s(b, in.BW)
	b = appendTag(b, "solver")
	b = appendTag(b, strings.ToLower(strings.TrimSpace(solver)))
	b = appendTag(b, "opts")
	b = binary.LittleEndian.AppendUint64(b, uint64(opt.BoundNodes))
	if len(opt.Objects) > 0 {
		// Multi-object requests key on the per-object vectors too: the
		// same base instance under different object sets is a different
		// computation. Single-object requests skip the section entirely,
		// so their keys are unchanged by this extension.
		b = appendTag(b, "objects")
		b = binary.LittleEndian.AppendUint64(b, uint64(len(opt.Objects)))
		for _, ov := range opt.Objects {
			b = appendInt64s(b, ov.R)
			b = appendInt64s(b, ov.S)
		}
	}
	return sumKey(bp, b)
}

// ShapeKey returns the canonical key of a tree shape alone — the shape
// section of Key. The batch path interns preprocessed trees under it, so
// repeated batches over one topology skip the tree build entirely.
func ShapeKey(parents []int, isClient []bool) string {
	bp := keyBufs.Get().(*[]byte)
	b := slices.Grow((*bp)[:0], 8*len(parents)+len(isClient)+64)
	b = appendTag(b, "tree")
	b = appendInts(b, parents)
	b = appendBools(b, isClient)
	return sumKey(bp, b)
}

// sumKey hashes the encoded stream, hands the buffer back to the pool
// (unless it outgrew the cap) and returns the hex digest.
func sumKey(bp *[]byte, b []byte) string {
	sum := sha256.Sum256(b)
	if cap(b) <= maxPooledKeyBuf {
		*bp = b
		keyBufs.Put(bp)
	}
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendTreeShape is ShapeKey's encoding of t's parents and client
// flags, read in place rather than through the copying accessors.
func appendTreeShape(b []byte, t *tree.Tree) []byte {
	n := t.Len()
	b = appendTag(b, "tree")
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	for v := 0; v < n; v++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(t.Parent(v))))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	for v := 0; v < n; v++ {
		b = append(b, boolByte(t.IsClient(v)))
	}
	return b
}

func appendTag(b []byte, tag string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(tag)))
	return append(b, tag...)
}

// appendInt64s length-prefixes the vector; a nil slice encodes as an
// explicit absence marker so nil and empty differ from any present
// vector.
func appendInt64s(b []byte, v []int64) []byte {
	if v == nil {
		return binary.LittleEndian.AppendUint64(b, ^uint64(0))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

func appendInts(b []byte, v []int) []byte {
	if v == nil {
		return binary.LittleEndian.AppendUint64(b, ^uint64(0))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(x)))
	}
	return b
}

func appendBools(b []byte, v []bool) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	for _, x := range v {
		b = append(b, boolByte(x))
	}
	return b
}

func boolByte(x bool) byte {
	if x {
		return 1
	}
	return 0
}
