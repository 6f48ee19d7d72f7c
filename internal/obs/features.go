package obs

// QueryFeatures is the feature vector the workload journal records for one
// constrained frequent set query: database shape, per-side support
// thresholds and domain sizes, the estimated level-1 frequent item counts
// (L1 stats), the product of the per-constraint selectivity estimates
// (internal/core/estimate.go), and the constraint-mix counts. It describes
// the query for offline rollups; the planner does not read it. It is
// strategy-independent: two runs of the same query under different
// strategies share one feature vector.
type QueryFeatures struct {
	// Transactions / Items describe the database snapshot (active items).
	Transactions int `json:"transactions"`
	Items        int `json:"items"`
	// MinSupportS/T are the absolute support thresholds after clamping.
	MinSupportS int `json:"min_support_s"`
	MinSupportT int `json:"min_support_t"`
	// DomainS/T are the candidate item counts per side after domain
	// restriction (= Items when unrestricted).
	DomainS int `json:"domain_s"`
	DomainT int `json:"domain_t"`
	// FrequentItemsS/T estimate L1: domain items whose singleton support
	// meets the side's threshold.
	FrequentItemsS int `json:"frequent_items_s"`
	FrequentItemsT int `json:"frequent_items_t"`
	// SelectivityS/T multiply the per-constraint level-1 selectivity
	// estimates for the side's original conjunction; 1 with no constraints,
	// -1 when no constraint could be estimated (no support mass).
	SelectivityS float64 `json:"selectivity_s"`
	SelectivityT float64 `json:"selectivity_t"`
	// Constraint-mix counts: 1-var per side, 2-var total, and how many of
	// the 2-var constraints are quasi-succinct (reducible to succinct 1-var
	// conditions — the paper's cheap class; the rest need induced weakening
	// plus Jmax-style bounds).
	Constraints1S  int `json:"constraints_1var_s"`
	Constraints1T  int `json:"constraints_1var_t"`
	Constraints2   int `json:"constraints_2var"`
	QuasiSuccinct2 int `json:"quasi_succinct_2var"`
}
