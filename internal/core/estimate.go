// Selectivity estimation for EXPLAIN: a deliberately crude item-frequency
// model. EXPLAIN has no histogram machinery; what it does have for free
// is the support of every item (txdb computes it once per database, i.e.
// once per dataset generation, so an estimate costs no pass). A 1-var
// constraint's estimated selectivity is the support-weighted fraction of
// domain items whose *singleton* satisfies it — i.e. the expected level-1
// pass rate, treating the constraint as an item filter. For succinct
// constraints this is exact at level 1; for aggregate constraints it is only
// an indicator of how restrictive the constraint is on small sets. EXPLAIN
// ANALYZE exists precisely because this estimate is rough: the actual pruned
// counts sit next to it.
package core

import (
	"repro/internal/constraint"
	"repro/internal/itemset"
)

// itemSupport looks an item up in the database's per-item supports
// (txdb.DB.ItemSupports); a domain item the database never saw has none.
func itemSupport(sup []int, it itemset.Item) int64 {
	if int(it) >= len(sup) {
		return 0
	}
	return int64(sup[it])
}

// estimateSelectivity returns the estimated fraction of candidate mass the
// constraint keeps, in [0, 1], or -1 when the domain carries no support
// mass at all (no estimate possible).
func estimateSelectivity(c constraint.Constraint, domain itemset.Set, sup []int) float64 {
	var kept, total int64
	for _, it := range domain {
		w := itemSupport(sup, it)
		if w == 0 {
			continue
		}
		total += w
		if c.Satisfies(itemset.New(it)) {
			kept += w
		}
	}
	if total == 0 {
		return -1
	}
	return float64(kept) / float64(total)
}
