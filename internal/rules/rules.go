// Package rules implements the second phase of the paper's two-phase
// architecture: turning the frequent valid (S, T) pairs computed by the
// CFQ engine into rules S ⇒ T with their interestingness metrics. The
// paper keeps this phase deliberately cheap ("the computation cost of
// finding constrained frequent sets far dominates the cost of forming the
// final rules"); accordingly the only extra work here is one batched scan
// to count the supports of the unions S ∪ T.
package rules

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/txdb"
)

// Rule is an association rule S ⇒ T derived from a valid pair.
type Rule struct {
	S, T itemset.Set
	// SupportS and SupportT are the marginal supports of the sides.
	SupportS, SupportT int
	// SupportUnion is the support of S ∪ T (the rule's joint support).
	SupportUnion int
	// Confidence is sup(S ∪ T) / sup(S).
	Confidence float64
	// Lift is confidence / (sup(T) / N): how much more often T occurs
	// with S than its base rate.
	Lift float64
}

// String renders the rule with its metrics.
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup %d, conf %.3f, lift %.2f)",
		r.S, r.T, r.SupportUnion, r.Confidence, r.Lift)
}

// Params filters the generated rules.
type Params struct {
	// MinConfidence keeps rules with confidence >= this value.
	MinConfidence float64
	// MinLift keeps rules with lift >= this value (0 disables).
	MinLift float64
	// MinJointSupport keeps rules whose S ∪ T support reaches this count
	// (0 disables; a CFQ's separate frequency constraints do not imply the
	// union is frequent).
	MinJointSupport int
	// SkipOverlapping drops pairs with S ∩ T ≠ ∅ (rules with overlapping
	// sides are rarely meaningful).
	SkipOverlapping bool
}

// FromPairs derives the rules of a CFQ result: pairs index validS and validT
// (core.Result's ValidS() and ValidT()). The supports of all distinct unions
// are counted in a single pass over the database. Rules are returned sorted
// by descending confidence, then lift.
func FromPairs(db *txdb.DB, validS, validT []mine.Counted, pairs []core.Pair, p Params) ([]Rule, error) {
	if db == nil {
		return nil, fmt.Errorf("rules: nil database")
	}
	if db.Len() == 0 {
		return nil, nil
	}
	// Collect distinct unions.
	type need struct {
		union itemset.Set
		count int
	}
	needs := map[string]*need{}
	for _, pr := range pairs {
		s, t := validS[pr.SI], validT[pr.TI]
		if p.SkipOverlapping && s.Set.Intersects(t.Set) {
			continue
		}
		u := s.Set.Union(t.Set)
		key := u.Key()
		if _, ok := needs[key]; !ok {
			needs[key] = &need{union: u}
		}
	}
	// One batched scan for every union's support.
	db.Scan(func(_ int, t itemset.Set) {
		for _, n := range needs {
			if t.ContainsAll(n.union) {
				n.count++
			}
		}
	})

	n := float64(db.Len())
	var out []Rule
	for _, pr := range pairs {
		s, t := validS[pr.SI], validT[pr.TI]
		if p.SkipOverlapping && s.Set.Intersects(t.Set) {
			continue
		}
		u := needs[s.Set.Union(t.Set).Key()]
		if p.MinJointSupport > 0 && u.count < p.MinJointSupport {
			continue
		}
		conf := 0.0
		if s.Support > 0 {
			conf = float64(u.count) / float64(s.Support)
		}
		if conf < p.MinConfidence {
			continue
		}
		lift := 0.0
		if t.Support > 0 {
			lift = conf / (float64(t.Support) / n)
		}
		if p.MinLift > 0 && lift < p.MinLift {
			continue
		}
		out = append(out, Rule{
			S: s.Set, T: t.Set,
			SupportS: s.Support, SupportT: t.Support,
			SupportUnion: u.count,
			Confidence:   conf,
			Lift:         lift,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Lift != out[j].Lift {
			return out[i].Lift > out[j].Lift
		}
		return out[i].S.Key()+out[i].T.Key() < out[j].S.Key()+out[j].T.Key()
	})
	return out, nil
}
