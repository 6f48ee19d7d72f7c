// Package itemset provides the sorted-itemset value type used throughout the
// CFQ engine, together with the set algebra and lattice utilities (prefix
// joins, subset enumeration, canonical keys) that levelwise frequent-set
// mining is built on.
//
// A Set is a strictly increasing slice of Item identifiers. All functions in
// this package preserve that invariant; New establishes it from arbitrary
// input. Sets are treated as immutable values: operations return fresh
// slices and never alias their inputs unless documented otherwise.
package itemset

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Item identifies a single item. The mining engine may remap items to dense
// ranks internally; Item is deliberately a small fixed-size integer so keys
// and candidate tables stay compact.
type Item int32

// Set is a sorted (strictly increasing) slice of items. The zero value is
// the empty set and is ready to use.
type Set []Item

// New builds a Set from arbitrary items, sorting and removing duplicates.
func New(items ...Item) Set {
	s := make(Set, len(items))
	copy(s, items)
	slices.Sort(s)
	// Deduplicate in place.
	out := s[:0]
	for i, it := range s {
		if i == 0 || it != s[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// FromSorted wraps an already strictly increasing slice as a Set without
// copying. It panics if the invariant does not hold; use it only on slices
// the caller controls.
func FromSorted(items []Item) Set {
	for i := 1; i < len(items); i++ {
		if items[i-1] >= items[i] {
			panic(fmt.Sprintf("itemset.FromSorted: input not strictly increasing at %d: %v", i, items))
		}
	}
	return Set(items)
}

// Valid reports whether s satisfies the strictly-increasing invariant.
func (s Set) Valid() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s) == 0 }

// Clone returns a copy of s backed by fresh storage.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Contains reports whether item x is a member of s.
func (s Set) Contains(x Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// ContainsAll reports whether every element of sub is a member of s
// (i.e. sub ⊆ s).
func (s Set) ContainsAll(sub Set) bool {
	i := 0
	for _, x := range sub {
		for i < len(s) && s[i] < x {
			i++
		}
		if i >= len(s) || s[i] != x {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t as a new Set.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t as a new Set.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Intersects reports whether s ∩ t ≠ ∅ without allocating.
func (s Set) Intersects(t Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Minus returns s \ t as a new Set.
func (s Set) Minus(t Set) Set {
	var out Set
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j < len(t) && t[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// Add returns s ∪ {x} as a new Set.
func (s Set) Add(x Item) Set {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s.Clone()
	}
	out := make(Set, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	out = append(out, s[i:]...)
	return out
}

// Remove returns s \ {x} as a new Set.
func (s Set) Remove(x Item) Set {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i >= len(s) || s[i] != x {
		return s.Clone()
	}
	out := make(Set, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// WithoutIndex returns the set with the element at position i removed.
func (s Set) WithoutIndex(i int) Set {
	out := make(Set, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Key returns a canonical map key for the set. Two sets are Equal iff their
// keys compare equal. The encoding packs each item into four bytes.
func (s Set) Key() string {
	b := make([]byte, 4*len(s))
	for i, it := range s {
		v := uint32(it)
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

// ParseKey reverses Key. It returns false when the key has invalid length.
func ParseKey(key string) (Set, bool) {
	if len(key)%4 != 0 {
		return nil, false
	}
	s := make(Set, len(key)/4)
	for i := range s {
		v := uint32(key[4*i]) | uint32(key[4*i+1])<<8 | uint32(key[4*i+2])<<16 | uint32(key[4*i+3])<<24
		s[i] = Item(v)
	}
	return s, true
}

// String renders the set as "{1, 5, 9}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(int(it)))
	}
	b.WriteByte('}')
	return b.String()
}

// SharePrefix reports whether a and b agree on their first n elements. It is
// the join test for levelwise candidate generation.
func SharePrefix(a, b Set, n int) bool {
	if len(a) < n || len(b) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// JoinPrefix merges two k-sets that agree on their first k-1 elements into
// a (k+1)-candidate. It panics if the precondition fails; callers test with
// SharePrefix first. The inputs are not aliased by the result.
func JoinPrefix(a, b Set) Set {
	k := len(a)
	if len(b) != k || k == 0 || !SharePrefix(a, b, k-1) || a[k-1] == b[k-1] {
		panic(fmt.Sprintf("itemset.JoinPrefix: not prefix-joinable: %v %v", a, b))
	}
	out := make(Set, k+1)
	copy(out, a[:k-1])
	if a[k-1] < b[k-1] {
		out[k-1], out[k] = a[k-1], b[k-1]
	} else {
		out[k-1], out[k] = b[k-1], a[k-1]
	}
	return out
}

// ForEachSubsetSize invokes fn for every subset of s with exactly k
// elements, in lexicographic order. The Set passed to fn is reused between
// invocations; fn must Clone it to retain it. Enumeration stops early when
// fn returns false.
func (s Set) ForEachSubsetSize(k int, fn func(Set) bool) {
	if k < 0 || k > len(s) {
		return
	}
	if k == 0 {
		fn(Set{})
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	buf := make(Set, k)
	for {
		for i, j := range idx {
			buf[i] = s[j]
		}
		if !fn(buf) {
			return
		}
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == len(s)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// ForEachSubset invokes fn for every non-empty subset of s, smaller sizes
// first. The Set passed to fn is reused; Clone to retain. Enumeration stops
// early when fn returns false. Intended for small sets (oracle/testing use).
func (s Set) ForEachSubset(fn func(Set) bool) {
	for k := 1; k <= len(s); k++ {
		stop := false
		s.ForEachSubsetSize(k, func(sub Set) bool {
			if !fn(sub) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Binomial returns C(n, k) saturating at math.MaxInt64 on overflow, and 0
// for out-of-range arguments. It is used by the Jmax bound (Equation 1 of
// the paper) where n can be moderately large.
func Binomial(n, k int) int64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const maxI64 = int64(^uint64(0) >> 1)
	var r int64 = 1
	for i := 1; i <= k; i++ {
		// r = r * (n-k+i) / i, guarding overflow.
		m := int64(n - k + i)
		if r > maxI64/m {
			return maxI64
		}
		r = r * m / int64(i)
	}
	return r
}
