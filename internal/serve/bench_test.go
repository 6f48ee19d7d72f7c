package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkObservedHit is what observability costs the cheapest request:
// a result-cache hit of the README query through the in-process handler,
// with nothing recording it ("off") and with the benchmark harness's
// configuration — journal and slow log on, both persisting —
// ("journal+slow"). It uses only Config fields and entry points older than
// the one-record sink, so the file drops into a clone of an earlier commit
// for a like-for-like table:
//
//	go test -run '^$' -bench ObservedHit -benchtime 20000x ./internal/serve
func BenchmarkObservedHit(b *testing.B) {
	body, err := json.Marshal(&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, observed := range []bool{false, true} {
		name, cfg := "off", Config{}
		if observed {
			dir := b.TempDir()
			name, cfg = "journal+slow", Config{
				Workload: true, WorkloadDir: filepath.Join(dir, "workload"),
				SlowQuery: 250 * time.Millisecond, SlowLogDir: filepath.Join(dir, "slowlog"),
			}
		}
		b.Run(name, func(b *testing.B) {
			s := NewServer(cfg)
			defer s.Shutdown(context.Background())
			if _, err := s.Registry().Create(marketSpec("market")); err != nil {
				b.Fatal(err)
			}
			hit := func() *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
				return w
			}
			hit() // fills the cache
			if w := hit(); w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"cached":true`)) {
				b.Fatalf("the repeat is not a cache hit: %d %s", w.Code, w.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
		})
	}
}
