package core

import (
	"sync"

	"repro/internal/tree"
)

// Scanner is a single-pass reader over the strict JSON subset that
// instance bodies use in practice: objects with exact lowercase keys,
// plain ASCII strings (no escapes), null, and arrays of integers
// (at most 18 digits, no fraction or exponent) or booleans.
//
// A Scanner never reports an error. On the first byte outside that
// subset it declines: every later call returns a zero value and End
// reports false, and the caller hands the same bytes to encoding/json,
// which stays the only owner of error texts and lenient cases
// (case-folded or duplicate keys, escapes, unknown fields, null array
// elements, ...). Whatever a Scanner accepts, encoding/json decodes to
// the same value.
type Scanner struct {
	data []byte
	pos  int
	ok   bool
}

// NewScanner returns a Scanner positioned at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data, ok: true} }

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (s *Scanner) peek() byte {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// expect consumes byte c after optional whitespace, or declines.
func (s *Scanner) expect(c byte) bool {
	if s.ok && s.peek() == c {
		s.pos++
		return true
	}
	s.ok = false
	return false
}

// null consumes a null literal if one comes next.
func (s *Scanner) null() bool {
	if s.ok && s.peek() == 'n' && s.literal("null") {
		return true
	}
	return false
}

func (s *Scanner) literal(lit string) bool {
	if len(s.data)-s.pos >= len(lit) && string(s.data[s.pos:s.pos+len(lit)]) == lit {
		s.pos += len(lit)
		return true
	}
	s.ok = false
	return false
}

// Object consumes the opening brace of an object and reports whether
// a member follows; an empty object is consumed whole. Iterate as
//
//	for more := s.Object(); more; more = s.More() {
//		switch string(s.Key()) { ... value ... }
//	}
func (s *Scanner) Object() bool {
	if !s.expect('{') {
		return false
	}
	if s.peek() == '}' {
		s.pos++
		return false
	}
	return true
}

// More consumes the separator after an object member's value and
// reports whether another member follows; it consumes the closing brace
// when not.
func (s *Scanner) More() bool {
	if !s.ok {
		return false
	}
	switch s.peek() {
	case ',':
		s.pos++
		return true
	case '}':
		s.pos++
		return false
	}
	s.ok = false
	return false
}

// Key reads a member name and its colon. The returned bytes alias the
// input.
func (s *Scanner) Key() []byte {
	k := s.plain()
	if !s.expect(':') {
		return nil
	}
	return k
}

// plain reads a string of printable ASCII without escapes.
func (s *Scanner) plain() []byte {
	if !s.expect('"') {
		return nil
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		c := s.data[s.pos]
		if c == '"' {
			s.pos++
			return s.data[start : s.pos-1]
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	s.ok = false
	return nil
}

// Text reads a string value; null reads as "".
func (s *Scanner) Text() string {
	if s.null() {
		return ""
	}
	return string(s.plain())
}

// Raw skips one JSON value and returns its bytes, aliasing the input.
// It finds only the value's extent — strings end at an unescaped quote,
// brackets nest, scalars end at a delimiter — and checks nothing else,
// so the caller must decode the bytes with encoding/json and decline
// if that fails.
func (s *Scanner) Raw() []byte {
	if !s.ok {
		return nil
	}
	s.skipSpace()
	start, depth := s.pos, 0
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if depth == 0 && (c == ',' || c == '}' || c == ']' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
			break // the end of a scalar
		}
		s.pos++
		switch c {
		case '"':
			for s.pos < len(s.data) && s.data[s.pos] != '"' {
				if s.data[s.pos] == '\\' {
					s.pos++
				}
				s.pos++
			}
			s.pos++ // the closing quote
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
		if depth == 0 && (c == '"' || c == '}' || c == ']') {
			break
		}
	}
	if s.pos > len(s.data) {
		s.ok = false
		return nil
	}
	return s.data[start:s.pos]
}

// End reports whether the scanner accepted everything and only
// whitespace remains.
func (s *Scanner) End() bool {
	if s.ok && s.peek() == 0 && s.pos == len(s.data) {
		return true
	}
	s.ok = false
	return false
}

// maxDigits keeps every accepted integer inside int64 without overflow
// checks; longer numbers are left to encoding/json.
const maxDigits = 18

func (s *Scanner) int64() int64 {
	if !s.ok {
		return 0
	}
	neg := s.pos < len(s.data) && s.data[s.pos] == '-'
	if neg {
		s.pos++
	}
	start := s.pos
	var v int64
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		v = v*10 + int64(s.data[s.pos]-'0')
		s.pos++
	}
	n := s.pos - start
	// No digits, a leading zero, or too many digits. Fractions and
	// exponents fail at the caller's separator check.
	if n == 0 || n > maxDigits || (n > 1 && s.data[start] == '0') {
		s.ok = false
		return 0
	}
	if neg {
		return -v
	}
	return v
}

func (s *Scanner) bool() bool {
	if !s.ok {
		return false
	}
	switch s.peek() {
	case 't':
		return s.literal("true")
	case 'f':
		s.literal("false")
		return false
	}
	s.ok = false
	return false
}

// array consumes a JSON array, calling elem once per element with the
// scanner positioned at it. It reports false for null (and on decline).
func (s *Scanner) array(elem func()) bool {
	if s.null() || !s.expect('[') {
		return false
	}
	if s.peek() == ']' {
		s.pos++
		return true
	}
	for s.ok {
		s.skipSpace()
		elem()
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return s.ok
		default:
			s.ok = false
		}
	}
	return false
}

// int64s reads an integer array into dst[:0]. present is false for null.
func (s *Scanner) int64s(dst []int64) (v []int64, present bool) {
	dst = dst[:0]
	present = s.array(func() { dst = append(dst, s.int64()) })
	return dst, present
}

// ints is int64s for []int, declining on values int cannot hold.
func (s *Scanner) ints(dst []int) (v []int, present bool) {
	dst = dst[:0]
	present = s.array(func() {
		x := s.int64()
		if int64(int(x)) != x {
			s.ok = false
		}
		dst = append(dst, int(x))
	})
	return dst, present
}

func (s *Scanner) bools(dst []bool) (v []bool, present bool) {
	dst = dst[:0]
	present = s.array(func() { dst = append(dst, s.bool()) })
	return dst, present
}

// scanScratch holds the vectors of one instance while it is parsed.
// The tree arrays go to tree.FromParents, which copies them; the other
// vectors are copied out at their exact length.
type scanScratch struct {
	parents []int
	flags   []bool
	ints    []int
	int64s  []int64
}

var scanScratches = sync.Pool{New: func() any { return new(scanScratch) }}

// maxPooledScratch caps the elements a recycled scratch may keep per
// vector, so one very large instance does not stay pinned in the pool.
const maxPooledScratch = 1 << 17

func (sc *scanScratch) release() {
	if max(cap(sc.parents), cap(sc.flags), cap(sc.ints), cap(sc.int64s)) > maxPooledScratch {
		return
	}
	scanScratches.Put(sc)
}

// exact copies a present vector at its exact length (empty stays
// non-nil, as encoding/json decodes []); an absent one is nil.
func exact[T any](v []T, present bool) []T {
	if !present {
		return nil
	}
	return append(make([]T, 0, len(v)), v...)
}

// Instance reads an instance object, builds its tree and validates it.
// It returns nil for null, and nil with a decline for anything outside
// the scanner's subset — including instances that tree.FromParents or
// Validate reject, whose error texts belong to encoding/json's path.
func (s *Scanner) Instance() *Instance {
	if s.null() || !s.ok {
		return nil
	}
	sc := scanScratches.Get().(*scanScratch)
	defer sc.release()
	// parents and flags alias the scratch: FromParents copies them and
	// reads only their lengths and values, so null and [] need no
	// distinction there.
	var (
		in      Instance
		parents []int
		flags   []bool
		seen    uint8
	)
	for more := s.Object(); more; more = s.More() {
		var bit uint8
		var present bool
		switch string(s.Key()) {
		case "parents":
			bit = 1 << 0
			sc.parents, _ = s.ints(sc.parents)
			parents = sc.parents
		case "is_client":
			bit = 1 << 1
			sc.flags, _ = s.bools(sc.flags)
			flags = sc.flags
		case "requests":
			bit = 1 << 2
			sc.int64s, present = s.int64s(sc.int64s)
			in.R = exact(sc.int64s, present)
		case "capacities":
			bit = 1 << 3
			sc.int64s, present = s.int64s(sc.int64s)
			in.W = exact(sc.int64s, present)
		case "storage_costs":
			bit = 1 << 4
			sc.int64s, present = s.int64s(sc.int64s)
			in.S = exact(sc.int64s, present)
		case "qos":
			bit = 1 << 5
			sc.ints, present = s.ints(sc.ints)
			in.Q = exact(sc.ints, present)
		case "comm":
			bit = 1 << 6
			sc.int64s, present = s.int64s(sc.int64s)
			in.Comm = exact(sc.int64s, present)
		case "bandwidth":
			bit = 1 << 7
			sc.int64s, present = s.int64s(sc.int64s)
			in.BW = exact(sc.int64s, present)
		default:
			s.ok = false
		}
		if seen&bit != 0 {
			s.ok = false
		}
		seen |= bit
	}
	if !s.ok {
		return nil
	}
	t, err := tree.FromParents(parents, flags)
	if err != nil {
		s.ok = false
		return nil
	}
	in.Tree = t
	if in.Validate() != nil {
		s.ok = false
		return nil
	}
	return &in
}
