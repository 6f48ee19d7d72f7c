package mine

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/itemset"
	"repro/internal/obs"
)

// advance is the state of a run that carries a prior lattice across an
// append instead of mining from scratch (Advance).
//
// Write t for the prior's threshold, t′ ≥ t for the run's, Δ for the
// transactions behind the prior's rows. A set in the prior has its support
// over the old rows on record, so its new support is that plus its
// occurrences in Δ. A set outside the prior had at most t−1 over the old
// rows, so it reaches t′ only with at least t′−t+1 ≥ 1 occurrences in Δ:
// every newly frequent set occurs in Δ. Levels ≥ 3 are therefore driven by Δ
// — the sets a Δ row contains are counted over Δ as they are enumerated, and
// only those outside the prior with enough occurrences there are counted over
// the whole database, on the generation's item columns — while sets no Δ row
// contains keep their support and are re-thresholded.
type advance struct {
	prior [][]Counted // the prior lattice by level (index 0 is level 1)
	rows  int         // leading transactions the prior covers
	need  int         // occurrences in Δ a set outside the prior needs: t′−t+1

	// rowSets[i] lists, ascending, the positions in prevSets of the frequent
	// sets of the last completed level that Δ row i contains.
	rowSets [][]int32

	// What the run did at levels ≥ 3, for the advance span.
	carried, recounted, promoted, demoted int
}

// Advance carries a complete unconstrained lattice across an append: prior
// holds every frequent set (level by level, lexicographic — the miner's
// order) of the first rows transactions of cfg.DB over cfg.Domain at
// threshold priorMinSup, and the result is what RunAll returns, flattened,
// for the whole database at cfg.MinSupport ≥ priorMinSup — the same sets,
// supports and order. prior is not modified; kept sets are shared with it.
//
// The run is a Levelwise run — the same checkpoints, Stats, level spans and
// Workers split — under one structural "<label>:advance" span. Level 1 reads
// the item supports and level 2 the pair supports of cfg.DB, as in any run
// (a generation made by txdb.DB.Extend extends its parent's pair table and
// item columns by the appended rows; one New made builds them in one pass);
// from level 3 on only what the appended rows touch is counted (see
// advance), so Stats.CandidatesCounted charges those sets. The run reads no
// row but the appended ones, and Stats.DBScans stays 0.
//
// cfg must describe the whole lattice: Required, ReportValid, Checks,
// PresetL1 and MaxLevel are rejected.
func Advance(ctx context.Context, cfg Config, prior []Counted, priorMinSup, rows int) ([]Counted, error) {
	if cfg.Required != nil || cfg.ReportValid != nil || cfg.Checks != nil || cfg.PresetL1 != nil || cfg.MaxLevel != 0 {
		return nil, fmt.Errorf("mine: Advance carries unconstrained lattices only")
	}
	l, err := New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	priorMinSup = max(priorMinSup, 1)
	total := cfg.DB.Len()
	if rows < 0 || rows > total || l.cfg.MinSupport < priorMinSup {
		return nil, fmt.Errorf("mine: Advance from %d rows at support %d to %d rows at support %d",
			rows, priorMinSup, total, l.cfg.MinSupport)
	}
	a := &advance{rows: rows, need: l.cfg.MinSupport - priorMinSup + 1}
	for start := 0; start < len(prior); {
		k := prior[start].Set.Len()
		end := start
		for end < len(prior) && prior[end].Set.Len() == k {
			end++
		}
		for len(a.prior) < k {
			a.prior = append(a.prior, nil)
		}
		a.prior[k-1] = prior[start:end]
		start = end
	}
	l.adv = a

	// Structural, like the session's cache-miss span: the level spans under
	// it carry the Stats deltas.
	sp := l.tracer.Start(spanName(cfg.Label, "advance"), obs.Int("delta_rows", total-rows))
	levels, err := l.RunAll()
	sp.SetAttrs(obs.Int("carried", a.carried), obs.Int("recounted", a.recounted),
		obs.Int("promoted", a.promoted), obs.Int("demoted", a.demoted))
	sp.End(nil)
	if err != nil {
		return nil, err
	}
	return slices.Concat(levels...), nil
}

// deltaPairs returns, for every Δ row, the positions in prevSets of the
// frequent pairs it contains — the rowSets level 3 starts from.
func (l *Levelwise) deltaPairs(delta []itemset.Set) [][]int32 {
	isL1 := make([]bool, len(l.itemToRank))
	for _, r := range l.l1Ranks {
		isL1[l.rankToItem[r]] = true
	}
	out := make([][]int32, len(delta))
	var buf []int32 // the row's L1 ranks, ascending: without a class ranks follow items
	keys := l.keys()
	var key []byte
	for i, t := range delta {
		buf = buf[:0]
		for _, it := range t {
			if isL1[it] {
				buf = append(buf, l.itemToRank[it])
			}
		}
		for x, p := range buf {
			for _, q := range buf[x+1:] {
				key = appendRankKey(key[:0], p, q)
				if at, ok := keys[string(key)]; ok {
					out[i] = append(out[i], int32(at))
				}
			}
		}
	}
	return out
}

// advanceK produces the next level (3 or deeper) of an advancing run: stepK's
// result without generating or counting what the appended rows cannot have
// changed.
func (l *Levelwise) advanceK() ([]Counted, error) {
	a := l.adv
	k := l.level + 1
	if err := l.guard.Check(fmt.Sprintf("level %d: candidate generation", k)); err != nil {
		return nil, err
	}
	delta := l.cfg.DB.Transactions()[a.rows:]
	if a.rowSets == nil {
		a.rowSets = l.deltaPairs(delta)
	}

	// The candidates some Δ row contains, in order of discovery, each with
	// its occurrences in Δ: per row, the prefix join of the frequent
	// (k-1)-sets the row contains — every subset of a set the row contains is
	// in the row, so the global subset prune decides. touched[i] lists row
	// i's candidates, the seed of the next level's rowSets.
	var flat []int32 // the candidates, k ranks each
	var inDelta []int
	seen := map[string]int32{} // rank key → candidate, -1 when subset-pruned
	touched := make([][]int32, len(delta))
	c := make([]int32, k)
	var key []byte
	work, nextCheck := 0, genCheckBatch
	for i, sets := range a.rowSets {
		for x, p := range sets {
			if work >= nextCheck {
				if err := l.guard.Check(fmt.Sprintf("level %d: delta counting", k)); err != nil {
					return nil, err
				}
				nextCheck = work + genCheckBatch
			}
			for _, q := range sets[x+1:] {
				if !samePrefix(l.prevSets[p], l.prevSets[q], k-2) {
					break // ascending positions are lex order, as in genPrefixJoin
				}
				work++
				copy(c, l.prevSets[p])
				c[k-1] = l.prevSets[q][k-2]
				key = appendRankKey(key[:0], c...)
				id, ok := seen[string(key)]
				if !ok {
					id = -1
					if l.subsetPrune(c) {
						id = int32(len(inDelta))
						flat = append(flat, c...)
						inDelta = append(inDelta, 0)
					}
					seen[string(key)] = id
				}
				if id >= 0 {
					inDelta[id]++
					touched[i] = append(touched[i], id)
				}
			}
		}
	}
	cands := split(flat, k)
	// Charged before any is counted, like every level (see stepK).
	l.stats.CandidatesCounted += int64(len(cands))

	// Merge the prior's level (lex order, rank space) with the touched
	// candidates (sorted into it): a set of the prior adds its Δ occurrences
	// to the support on record, one outside it survives only with enough of
	// them, and is then counted over the whole database.
	var prior []Counted
	if k <= len(a.prior) {
		prior = a.prior[k-1]
	}
	priorRanks := make([]int32, k*len(prior))
	for j, p := range prior {
		for x, it := range p.Set {
			priorRanks[j*k+x] = l.itemToRank[it]
		}
	}
	order := make([]int32, len(cands))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return slices.Compare(cands[x], cands[y]) })

	type entry struct {
		ranks []int32
		orig  itemset.Set // the prior's set, nil for a newcomer
		sup   int
		cand  int32 // position in cands, -1 for a set no Δ row contains
	}
	merged := make([]entry, 0, len(prior)+len(cands))
	var fresh [][]int32 // newcomers to count, lex order
	var freshAt []int   // their positions in merged
	priorEntry := func(j int) entry {
		return entry{priorRanks[j*k : (j+1)*k : (j+1)*k], prior[j].Set, prior[j].Support, -1}
	}
	j := 0
	for _, id := range order {
		for ; j < len(prior) && slices.Compare(priorEntry(j).ranks, cands[id]) < 0; j++ {
			merged = append(merged, priorEntry(j))
		}
		switch {
		case j < len(prior) && slices.Equal(priorEntry(j).ranks, cands[id]):
			merged = append(merged, entry{cands[id], prior[j].Set, prior[j].Support + inDelta[id], id})
			j++
		case inDelta[id] >= a.need:
			fresh = append(fresh, cands[id])
			freshAt = append(freshAt, len(merged))
			merged = append(merged, entry{cands[id], nil, inDelta[id], id})
		default:
			l.stats.CandidatesPruned++
			l.freqSite.Add(1)
		}
	}
	for ; j < len(prior); j++ {
		merged = append(merged, priorEntry(j))
	}

	l.level = k
	if len(fresh) > 0 {
		counts, err := l.countCandidates(fresh, k)
		if err != nil {
			return nil, err
		}
		a.recounted += len(fresh)
		for x, at := range freshAt {
			merged[at].sup = counts[x]
		}
	}

	// Re-threshold in the miner's order. newAt maps a candidate to its
	// position in the new prevSets, -1 when it did not make the level.
	newAt := make([]int32, len(cands))
	for i := range newAt {
		newAt[i] = -1
	}
	var out []Counted
	l.resetLevel(len(merged))
	for _, e := range merged {
		if e.sup < l.cfg.MinSupport {
			l.stats.CandidatesPruned++
			l.freqSite.Add(1)
			if e.orig != nil {
				a.demoted++
			}
			continue
		}
		if e.orig != nil {
			a.carried++
		} else {
			a.promoted++
		}
		if e.cand >= 0 {
			newAt[e.cand] = int32(len(l.prevSets))
		}
		out = l.addFrequent(e.ranks, e.orig, e.sup, out)
	}
	for i, ids := range touched {
		sets := a.rowSets[i][:0]
		for _, id := range ids {
			if at := newAt[id]; at >= 0 {
				sets = append(sets, at)
			}
		}
		slices.Sort(sets)
		a.rowSets[i] = sets
	}
	return out, nil
}
