package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the tests hold the harness to.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// smokeScale shrinks the wide dataset to the size of the dense one, so that
// a workload's window, set-up and traced pass take about a second each.
const smokeScale = 0.2

func smokeOptions(t *testing.T) options {
	t.Helper()
	p, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	return options{paths: p, seed: 1, seconds: 1, clients: 2, scale: smokeScale, setups: 1, traced: 16}
}

// TestSmoke runs every workload end to end against a real cfqd, scaled
// down, and checks that each workload and metric BENCHMARK.json names is
// emitted with its unit and that no operation fails.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	o := smokeOptions(t)
	var err error
	if o.bin, err = o.paths.buildDaemon(); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	for i, mw := range m.Workloads {
		w := workloads[i]
		if mw.Name != w.name || mw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the harness %q (%s)", i, mw.Name, mw.Why, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(context.Background(), o, w, true)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 || rep.verified == 0 {
				t.Errorf("attempted %d, failed %d, verified %d (first failure: %v)", rep.attempted, rep.failed, rep.verified, rep.firstErr)
			}
			e2e, layers := rep.result(false).Metrics, rep.result(true).Metrics
			if len(e2e) != len(m.EndToEnd) || len(layers) != len(m.PerLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(e2e), len(layers), len(m.EndToEnd), len(m.PerLayer))
			}
			for _, want := range m.EndToEnd {
				got, ok := e2e[want.Name]
				if !ok || got.Unit != want.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (emitted %v), want unit %q and a positive value", want.Name, got, ok, want.Unit)
				}
			}
			for _, want := range m.PerLayer {
				if got, ok := layers[want.Name]; !ok || got.Unit != want.Unit {
					t.Errorf("per-layer metric %s: got %+v (emitted %v), want unit %q", want.Name, got, ok, want.Unit)
				}
			}
		})
	}
	for i, want := range m.EndToEnd {
		if got := endToEnd[i]; got.name != want.Name || got.better != want.Better || want.Bound <= 0 || want.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, want, got)
		}
	}
	for i, want := range m.PerLayer {
		if got := perLayer[i]; got.name != want.Name || got.better != want.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, want, got)
		}
	}
}

// bodyDigest hashes the first n request bodies of every client's sequence.
func bodyDigest(w workload, seed int64, n int) [sha256.Size]byte {
	in := w.build(seed, smokeScale, 2)
	h := sha256.New()
	for c := 0; c < 2; c++ {
		next := in.stream(c)
		for i := 0; i < n; i++ {
			req := next()
			h.Write([]byte(req.path))
			h.Write(req.body)
			h.Write([]byte(req.text)) // a prepared body is filled in by set-up; its text is not
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestDeterminism: the same seed gives the same request bodies and the same
// exact counters; another seed gives other bodies.
func TestDeterminism(t *testing.T) {
	o := smokeOptions(t)
	exact := []string{"core.candidates_per_query", "core.pair_checks_per_query", "serve.response_kb",
		"core.pruned_per_query", "core.db_scans_per_query", "mine.level2_candidates", "mine.lattice_sets"}
	for _, w := range workloads {
		if bodyDigest(w, 1, 100) != bodyDigest(w, 1, 100) {
			t.Errorf("%s: two builds with seed 1 sent different request bodies", w.name)
		}
		if bodyDigest(w, 1, 100) == bodyDigest(w, 2, 100) {
			t.Errorf("%s: seeds 1 and 2 sent the same request bodies", w.name)
		}
		a, err := tracedPass(context.Background(), o, w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tracedPass(context.Background(), o, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exact {
			if a.layers[name] != b.layers[name] {
				t.Errorf("%s: %s is %v in one traced pass and %v in the next", w.name, name, a.layers[name], b.layers[name])
			}
		}
	}
}

// TestDaemonSeesNoSeed: cfqd receives generated inputs only, never the seed
// or a workload's name.
func TestDaemonSeesNoSeed(t *testing.T) {
	args := strings.Join(daemonArgs("127.0.0.1:1", "127.0.0.1:2", 2, "/data"), " ")
	for _, w := range workloads {
		if strings.Contains(args, w.name) {
			t.Errorf("cfqd's command line %q names workload %s", args, w.name)
		}
		for _, ds := range w.build(1, smokeScale, 2).datasets {
			if strings.Contains(ds.name, w.name) {
				t.Errorf("dataset %q carries its workload's name", ds.name)
			}
		}
	}
	if strings.Contains(args, "seed") {
		t.Errorf("cfqd's command line %q carries a seed", args)
	}
}

// TestHygiene holds the harness source to the greps of scripts/check.sh,
// which also cover this directory: strategies are enumerated through
// core.Strategies and cfq.ParseStrategy, never named as core literals, and
// logging, metric exposition and profiling stay inside internal/obs.
func TestHygiene(t *testing.T) {
	banned := map[string]*regexp.Regexp{
		"core strategy literal":   regexp.MustCompile(`core\.Strategy[A-Z]`),
		"log.Print* call":         regexp.MustCompile(`\blog\.(Printf|Println|Print)\(`),
		"profiling import":        regexp.MustCompile(`"(runtime/pprof|net/http/pprof)"`),
		"exposition import":       regexp.MustCompile(`"exp` + `var"`),
		"hand-written exposition": regexp.MustCompile(`# TY` + `PE`),
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for what, re := range banned {
			if loc := re.FindIndex(src); loc != nil {
				t.Errorf("%s: %s at byte %d", f, what, loc[0])
			}
		}
	}
}
