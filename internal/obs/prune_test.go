package obs

import (
	"sync"
	"testing"
)

// TestPruneSiteHandles: Site resolves a name to one handle, a nil set to a
// nil handle whose Add does nothing, a resolved site stays out of Snapshot,
// Sites and Total until it is charged, and concurrent Adds on shared handles
// sum exactly (run under -race).
func TestPruneSiteHandles(t *testing.T) {
	var none *PruneSet
	if s := none.Site("S:frequency"); s != nil {
		t.Fatalf("nil set resolved a handle: %p", s)
	}
	none.Site("S:frequency").Add(3) // must not panic
	if none.Snapshot() != nil || none.Sites() != nil || none.Total() != 0 {
		t.Fatal("nil set reports sites")
	}

	p := NewPruneSet()
	a, b := p.Site("S:frequency"), p.Site("T:frequency")
	if a == nil || a == b || p.Site("S:frequency") != a {
		t.Fatalf("Site handles: %p %p %p", a, b, p.Site("S:frequency"))
	}
	a.Add(0)
	a.Add(-2)
	if len(p.Snapshot()) != 0 || len(p.Sites()) != 0 || p.Total() != 0 {
		t.Fatalf("uncharged sites reported: %v %v %d", p.Snapshot(), p.Sites(), p.Total())
	}
	b.Add(2)
	if got := p.Snapshot(); len(got) != 1 || got["T:frequency"] != 2 {
		t.Fatalf("Snapshot %v, want only T:frequency=2", got)
	}
	if got := p.Sites(); len(got) != 1 || got[0] != "T:frequency" {
		t.Fatalf("Sites %v", got)
	}

	const goroutines, adds = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines resolve their own handle, half share a.
			s := a
			if g%2 == 1 {
				s = p.Site("S:frequency")
			}
			for i := 0; i < adds; i++ {
				s.Add(1)
			}
		}()
	}
	wg.Wait()
	snap := p.Snapshot()
	if snap["S:frequency"] != goroutines*adds || p.Total() != goroutines*adds+2 {
		t.Fatalf("after %d×%d Adds: %v, total %d", goroutines, adds, snap, p.Total())
	}
	if got := p.Sites(); len(got) != 2 || got[0] != "S:frequency" || got[1] != "T:frequency" {
		t.Fatalf("Sites %v", got)
	}
}
