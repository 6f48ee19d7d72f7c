package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestParentJournalVerifies: a journal an older build wrote — one auto query
// and the two "shadow" re-runs that build's sampler appended — passes
// -verify, and the summary counts the shadow lines as neither queries nor
// slow requests.
func TestParentJournalVerifies(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "serve", "testdata", "journal_parent")
	var out strings.Builder
	if err := run([]string{"-dir", dir, "-verify"}, &out); err != nil {
		t.Fatalf("cfqstat -verify: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"verify: ok",
		"journal: 3 records (1 queries, 0 slow requests on other endpoints)",
		"top clusters (of 1 classes):",
		"strategies: auto=1",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "shadow") {
		t.Errorf("report still mentions shadow runs:\n%s", out.String())
	}
}
