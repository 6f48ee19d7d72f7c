package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryAndWaitReady drives the load generator against a stub cfqd that
// is not-ready for its first readiness probes and sheds the first two query
// attempts with a Retry-After hint: the run must wait, retry, converge to a
// 200, and report the retry counts in its summary.
func TestRetryAndWaitReady(t *testing.T) {
	var readyProbes, queryAttempts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if readyProbes.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"status":"starting"}`))
			return
		}
		w.Write([]byte(`{"status":"ready"}`))
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if queryAttempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"not_ready","message":"starting","retry_after_ms":1}}`))
			return
		}
		w.Write([]byte(`{"schema":"v1","cached":false}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-wait-ready", "5s",
		"-clients", "1", "-requests", "1",
		"-retries", "3", "-retry-base", "1ms", "-retry-cap", "10ms",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if got := readyProbes.Load(); got < 3 {
		t.Errorf("readiness probes = %d, want >= 3 (two not-ready, one ready)", got)
	}
	if got := queryAttempts.Load(); got != 3 {
		t.Errorf("query attempts = %d, want 3 (two shed, one served)", got)
	}
	rep := out.String()
	for _, want := range []string{"status 200: 1", "retries: 2 extra attempts across 1 requests"} {
		if !strings.Contains(rep, want) {
			t.Errorf("summary missing %q:\n%s", want, rep)
		}
	}
}

// TestRetriesExhausted: a server that sheds forever yields a final 429 after
// the configured attempts, never an infinite loop.
func TestRetriesExhausted(t *testing.T) {
	var attempts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"full","retry_after_ms":1}}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-clients", "1", "-requests", "1",
		"-retries", "2", "-retry-base", "1ms", "-retry-cap", "5ms",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
	rep := out.String()
	for _, want := range []string{"status 429: 1", "shed after retries: 1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("summary missing %q:\n%s", want, rep)
		}
	}
}

// TestClassLatencyIsAdmittedOnly: a class's percentiles are over its 200s.
// The stub sheds three of every four batch requests at once and serves the
// fourth after 20ms, so batch's p50 over all its requests would be the
// fast shed; over its admitted requests it is the slow 200.
func TestClassLatencyIsAdmittedOnly(t *testing.T) {
	const served = 20 * time.Millisecond
	var batchSeen atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Priority string }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		if req.Priority == "batch" && batchSeen.Add(1)%4 != 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"full","retry_after_ms":1000}}`))
			return
		}
		time.Sleep(served)
		w.Write([]byte(`{"schema":1,"cached":false}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-clients", "2", "-requests", "8", "-retries", "0",
		"-priority", "interactive,batch",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	rep := out.String()
	for _, want := range []string{
		"class batch        requests=8     admitted=2     shed=6",
		"class interactive  requests=8     admitted=8     shed=0",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("summary missing %q:\n%s", want, rep)
		}
	}
	lines := strings.Split(rep, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "class ") || i+1 == len(lines) {
			continue
		}
		f := strings.Fields(lines[i+1])
		if len(f) < 4 || f[0] != "admitted" || f[2] != "p50" {
			t.Fatalf("no admitted-latency line under %q:\n%s", line, rep)
		}
		if p50, err := time.ParseDuration(f[3]); err != nil || p50 < served {
			t.Errorf("%s: admitted p50 %q, want >= %v (a shed's latency leaked in)", line, f[3], served)
		}
	}
}
