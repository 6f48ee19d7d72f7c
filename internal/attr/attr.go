// Package attr implements the itemInfo(Item, Type, Price, …) auxiliary
// relation of the paper: per-item attribute tables with numeric attributes
// (e.g. Price) and categorical attributes (e.g. Type), plus the aggregate
// evaluators (min, max, sum, avg, count) and value-set projections that the
// constraint language is defined over.
package attr

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/itemset"
)

// Aggregate identifies one of the SQL-style aggregation functions of the
// CFQ language.
type Aggregate int

// The aggregation functions allowed in CFQ constraints.
const (
	Min Aggregate = iota
	Max
	Sum
	Avg
	Count
)

// String returns the lower-case name of the aggregate, matching the paper's
// notation (min(), max(), sum(), avg(), count()).
func (a Aggregate) String() string {
	switch a {
	case Min:
		return "min"
	case Max:
		return "max"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Count:
		return "count"
	}
	return fmt.Sprintf("Aggregate(%d)", int(a))
}

// Numeric is a numeric item attribute, indexed by item id. Items beyond the
// slice are treated as having no attribute and are rejected by the engine's
// validation rather than defaulted.
type Numeric []float64

// Value returns the attribute value of item it. It panics on out-of-range
// items; the engine validates domains before mining.
func (n Numeric) Value(it itemset.Item) float64 { return n[it] }

// Eval computes agg over the attribute values of s. Min/Max/Avg on the empty
// set are undefined; Eval returns ok=false for them (Sum of ∅ is 0 and
// Count of ∅ is 0, both defined).
func (n Numeric) Eval(agg Aggregate, s itemset.Set) (v float64, ok bool) {
	switch agg {
	case Count:
		return float64(s.Len()), true
	case Sum:
		sum := 0.0
		for _, it := range s {
			sum += n[it]
		}
		return sum, true
	}
	if s.Empty() {
		return 0, false
	}
	switch agg {
	case Min:
		m := math.Inf(1)
		for _, it := range s {
			m = math.Min(m, n[it])
		}
		return m, true
	case Max:
		m := math.Inf(-1)
		for _, it := range s {
			m = math.Max(m, n[it])
		}
		return m, true
	case Avg:
		sum := 0.0
		for _, it := range s {
			sum += n[it]
		}
		return sum / float64(s.Len()), true
	}
	panic(fmt.Sprintf("attr: unknown aggregate %v", agg))
}

// NonNegativeOver reports whether the attribute is non-negative on every
// item of the domain. The sum/avg weakening rules of the paper (Section 5.1)
// are only sound for non-negative domains; the engine consults this before
// enabling them.
func (n Numeric) NonNegativeOver(domain itemset.Set) bool {
	for _, it := range domain {
		if n[it] < 0 {
			return false
		}
	}
	return true
}

// ValuesOver returns the sorted distinct attribute values over the items of
// domain (the set L1.A of the paper, when domain is the frequent items).
func (n Numeric) ValuesOver(domain itemset.Set) []float64 {
	vals := make([]float64, 0, domain.Len())
	for _, it := range domain {
		vals = append(vals, n[it])
	}
	sort.Float64s(vals)
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Categorical is a categorical item attribute: Values maps item id to a
// category id; Labels names each category.
type Categorical struct {
	Values []int32
	Labels []string
}

// Value returns the category id of item it.
func (c *Categorical) Value(it itemset.Item) int32 { return c.Values[it] }

// Label returns the name of category id v, or "cat<v>" when unnamed.
func (c *Categorical) Label(v int32) string {
	if int(v) < len(c.Labels) {
		return c.Labels[v]
	}
	return fmt.Sprintf("cat%d", v)
}

// CategoryID returns the id for a label, or -1 when the label is unknown.
func (c *Categorical) CategoryID(label string) int32 {
	for i, l := range c.Labels {
		if l == label {
			return int32(i)
		}
	}
	return -1
}

// SetOf projects s through the attribute: the set S.A of the paper, as a
// sorted set of category ids.
func (c *Categorical) SetOf(s itemset.Set) ValueSet {
	vals := make([]int32, 0, s.Len())
	for _, it := range s {
		vals = append(vals, c.Values[it])
	}
	return NewValueSet(vals...)
}

// DistinctCount returns |S.A|: the number of distinct category values in s.
// It implements the paper's count(S.Type) constraint form.
func (c *Categorical) DistinctCount(s itemset.Set) int { return c.SetOf(s).Len() }

// ValueSet is a sorted set of categorical values, the codomain of S.A for a
// categorical attribute A. It mirrors the itemset.Set algebra.
type ValueSet []int32

// NewValueSet builds a ValueSet from arbitrary values.
func NewValueSet(vals ...int32) ValueSet {
	v := make(ValueSet, len(vals))
	copy(v, vals)
	slices.Sort(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Len returns the cardinality of the value set.
func (v ValueSet) Len() int { return len(v) }

// Contains reports membership of x.
func (v ValueSet) Contains(x int32) bool {
	i := sort.Search(len(v), func(i int) bool { return v[i] >= x })
	return i < len(v) && v[i] == x
}

// ContainsAll reports sub ⊆ v.
func (v ValueSet) ContainsAll(sub ValueSet) bool {
	i := 0
	for _, x := range sub {
		for i < len(v) && v[i] < x {
			i++
		}
		if i >= len(v) || v[i] != x {
			return false
		}
		i++
	}
	return true
}

// Intersects reports v ∩ u ≠ ∅.
func (v ValueSet) Intersects(u ValueSet) bool {
	i, j := 0, 0
	for i < len(v) && j < len(u) {
		switch {
		case v[i] < u[j]:
			i++
		case v[i] > u[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Equal reports element-wise equality.
func (v ValueSet) Equal(u ValueSet) bool {
	if len(v) != len(u) {
		return false
	}
	for i := range v {
		if v[i] != u[i] {
			return false
		}
	}
	return true
}

// Table is the itemInfo relation: named numeric and categorical attributes
// over a fixed item domain of size NumItems. The zero value is unusable;
// construct with NewTable.
type Table struct {
	NumItems    int
	numeric     map[string]Numeric
	categorical map[string]*Categorical
}

// NewTable creates an empty attribute table for an item domain of the given
// size.
func NewTable(numItems int) *Table {
	return &Table{
		NumItems:    numItems,
		numeric:     map[string]Numeric{},
		categorical: map[string]*Categorical{},
	}
}

// SetNumeric registers a numeric attribute. The value slice must cover the
// whole item domain.
func (t *Table) SetNumeric(name string, values []float64) error {
	if len(values) != t.NumItems {
		return fmt.Errorf("attr: numeric %q has %d values, domain has %d items", name, len(values), t.NumItems)
	}
	t.numeric[name] = Numeric(values)
	return nil
}

// SetCategorical registers a categorical attribute. The value slice must
// cover the whole item domain and reference only labels in range.
func (t *Table) SetCategorical(name string, values []int32, labels []string) error {
	if len(values) != t.NumItems {
		return fmt.Errorf("attr: categorical %q has %d values, domain has %d items", name, len(values), t.NumItems)
	}
	for i, v := range values {
		if v < 0 || int(v) >= len(labels) {
			return fmt.Errorf("attr: categorical %q: item %d has out-of-range category %d", name, i, v)
		}
	}
	t.categorical[name] = &Categorical{Values: values, Labels: labels}
	return nil
}

// Numeric looks up a numeric attribute by name.
func (t *Table) Numeric(name string) (Numeric, bool) {
	n, ok := t.numeric[name]
	return n, ok
}

// Categorical looks up a categorical attribute by name.
func (t *Table) Categorical(name string) (*Categorical, bool) {
	c, ok := t.categorical[name]
	return c, ok
}

// NumericNames returns the registered numeric attribute names, sorted.
func (t *Table) NumericNames() []string {
	names := make([]string, 0, len(t.numeric))
	for n := range t.numeric {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CategoricalNames returns the registered categorical attribute names,
// sorted.
func (t *Table) CategoricalNames() []string {
	names := make([]string, 0, len(t.categorical))
	for n := range t.categorical {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
