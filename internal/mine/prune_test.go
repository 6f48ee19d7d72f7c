package mine

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// TestPruneChargesSumToStats: the pruning-attribution contract at the miner
// level — with a PruneSet in the context, the miner charges every discarded
// candidate to exactly one site, so the site totals reproduce
// Stats.CandidatesPruned; and attribution is observation only (stats are
// identical with and without the set installed).
func TestPruneChargesSumToStats(t *testing.T) {
	p := gen.Default(200) // 500 transactions
	p.Seed = 5
	db, err := gen.Quest(p)
	if err != nil {
		t.Fatal(err)
	}
	minSup := 20

	miners := []struct {
		name string
		run  func(ctx context.Context, stats *Stats) error
	}{
		{"levelwise", func(ctx context.Context, stats *Stats) error {
			_, err := AllFrequent(ctx, db, minSup, nil, nil, stats)
			return err
		}},
	}
	for _, m := range miners {
		t.Run(m.name, func(t *testing.T) {
			prune := obs.NewPruneSet()
			ctx := obs.WithPruning(context.Background(), prune)
			stats := &Stats{}
			if err := m.run(ctx, stats); err != nil {
				t.Fatal(err)
			}
			if stats.CandidatesPruned == 0 {
				t.Fatal("fixture prunes nothing; pick a higher minSup")
			}
			if got, want := prune.Total(), stats.CandidatesPruned; got != want {
				t.Errorf("site charges sum to %d, stats pruned %d\nsites: %v",
					got, want, prune.Snapshot())
			}
			for _, site := range prune.Sites() {
				if site == "" {
					t.Error("empty site key charged")
				}
			}
			plain := &Stats{}
			if err := m.run(context.Background(), plain); err != nil {
				t.Fatal(err)
			}
			if *plain != *stats {
				t.Errorf("attribution changed the work: attributed %+v, plain %+v", *stats, *plain)
			}
		})
	}
}
