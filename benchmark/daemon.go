package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// paths locates the repository and the benchmark's scratch directory. All
// build outputs, daemon data directories and span files live under work,
// which is inside the checkout and git-ignored.
type paths struct {
	root string // repository root (holds cmd/cfqd)
	work string // <root>/.bench_build
}

func locate() (paths, error) {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "cmd", "cfqd", "main.go")); err == nil {
			abs, err := filepath.Abs(root)
			if err != nil {
				return paths{}, err
			}
			p := paths{root: abs, work: filepath.Join(abs, ".bench_build")}
			return p, os.MkdirAll(p.work, 0o755)
		}
	}
	return paths{}, errors.New("run from the repository root or from benchmark/ (cmd/cfqd not found)")
}

// goEnv keeps what the Go toolchain writes (build cache, temporary files,
// module cache, and the telemetry counters under the user config directory)
// inside the checkout, so a benchmark run writes nowhere else.
func (p paths) goEnv() []string {
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(p.work, "gocache"),
		"GOTMPDIR="+p.work,
		"GOTOOLCHAIN=local",
		"GOPATH="+filepath.Join(p.work, "gopath"),
		"XDG_CONFIG_HOME="+filepath.Join(p.work, "config"))
}

// buildDaemon compiles cmd/cfqd from the checkout's source.
func (p paths) buildDaemon() (string, error) {
	bin := filepath.Join(p.work, "cfqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cfqd")
	cmd.Dir = p.root
	cmd.Env = p.goEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cfqd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running cfqd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	api     string // host:port
	ops     string // http://host:port
	dataDir string
	exited  chan error
	stderr  *strings.Builder
}

// freeAddr reserves an ephemeral loopback port and releases it for cfqd:
// with -quiet the daemon does not report a port it picked itself.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// compactRecords is cfqd's -compact-records: low enough that append-requery's
// window sees several WAL compactions per dataset.
const compactRecords = 16

// daemonArgs is cfqd's command line for every workload. Journal and slow
// log are on (their cost is part of what is measured); shadow sampling is
// off because it re-executes queries in the background. Neither the seed nor
// the workload's name is passed.
func daemonArgs(api, ops string, workers int, dataDir string) []string {
	return []string{
		"-addr", api, "-ops-addr", ops,
		"-workers", strconv.Itoa(workers),
		"-data-dir", dataDir, "-fsync", "always", "-compact-records", strconv.Itoa(compactRecords),
		"-workload", "-slow-query-ms", strconv.FormatInt(slowQuery.Milliseconds(), 10),
		"-quiet",
	}
}

// startDaemon boots cfqd and waits until /readyz answers 200.
func startDaemon(bin, workDir string, workers int) (*daemon, error) {
	dataDir, err := os.MkdirTemp(workDir, "data-")
	if err != nil {
		return nil, err
	}
	api, err := freeAddr()
	if err != nil {
		return nil, err
	}
	ops, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{api: api, ops: "http://" + ops, dataDir: dataDir,
		exited: make(chan error, 1), stderr: &strings.Builder{}}
	d.cmd = exec.Command(bin, daemonArgs(api, ops, workers, dataDir)...)
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()

	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + d.api + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case werr := <-d.exited:
			d.exited <- werr
			os.RemoveAll(dataDir)
			return nil, fmt.Errorf("cfqd exited during boot: %v\n%s", werr, d.stderr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cfqd not ready after 20s\n%s", d.stderr)
		}
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit (killing it if
// the drain hangs) and removes its data directory.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		err = errors.New("cfqd did not drain within 15s; killed")
	}
	if rerr := os.RemoveAll(d.dataDir); err == nil {
		err = rerr
	}
	return err
}

// procSample is a point-in-time reading of the daemon process.
type procSample struct {
	cpu       time.Duration // user+system
	peakRSSKB int64
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux configuration Go supports.
const clockTick = 100

func (d *daemon) proc() (procSample, error) {
	var s procSample
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("bad /proc stat line %q", stat)
	}
	s.cpu = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.peakRSSKB, _ = strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	}
	return s, nil
}

// vars is one scrape of the ops port's /debug/vars: the Go runtime's
// memstats and the daemon's metric registry ("cfq").
type vars struct {
	Memstats struct {
		TotalAlloc   uint64
		NumGC        uint32
		PauseTotalNs uint64
	} `json:"memstats"`
	CFQ map[string]json.RawMessage `json:"cfq"`
}

func (d *daemon) vars(ctx context.Context) (*vars, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ops+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v vars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return &v, nil
}

// counter reads a scalar counter, or the sum over a labelled family.
func (v *vars) counter(name string) float64 {
	raw, ok := v.CFQ[name]
	if !ok {
		return 0
	}
	var n float64
	if json.Unmarshal(raw, &n) == nil {
		return n
	}
	var family map[string]float64
	if json.Unmarshal(raw, &family) == nil {
		for _, x := range family {
			n += x
		}
	}
	return n
}

// histogram reads a histogram's observation count and sum, summed over a
// labelled family's members.
func (v *vars) histogram(name string) (count, sumMS float64) {
	raw, ok := v.CFQ[name]
	if !ok {
		return 0, 0
	}
	type hist struct {
		Count *float64 `json:"count"`
		SumMS float64  `json:"sum_ms"`
	}
	var h hist
	if json.Unmarshal(raw, &h) == nil && h.Count != nil {
		return *h.Count, h.SumMS
	}
	var family map[string]hist
	if json.Unmarshal(raw, &family) == nil {
		for _, m := range family {
			if m.Count != nil {
				count += *m.Count
				sumMS += m.SumMS
			}
		}
	}
	return count, sumMS
}
