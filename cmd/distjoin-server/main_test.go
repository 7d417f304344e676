package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/rtree"
	"distjoin/internal/serving"
)

// TestServeSmoke builds this command, serves the demo data from it,
// sends a request of every /v1 family and stops it with SIGTERM. It
// requires a 200 for every request; pairs equal to the in-process
// facade's on the same data, IDs and distance bits; an ?explain=1
// timeline that
// agrees with the stats block; an exit status of 0 within 10 s; and a
// request log on stderr whose every "request" record carries every key
// of serving.RequestLogKeys, one of them at WARN (the 1 ms slow-query
// threshold).
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	const seed, n = 42, 4000
	dir := t.TempDir()
	bin := filepath.Join(dir, "distjoin-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	s := startServer(t, bin, dir,
		"-demo", strconv.Itoa(n), "-seed", strconv.Itoa(seed), "-slow-query", "1ms")

	leftItems, rightItems := demoItems(seed, n)
	left, right := mustIndex(t, leftItems), mustIndex(t, rightItems)

	// Explain: a timeline with events and stage spans, whose digest reads
	// the same collector as the stats block.
	var explained struct {
		Stats struct {
			DistCalcs int64 `json:"dist_calcs"`
		} `json:"stats"`
		Explain *struct {
			Events  []json.RawMessage `json:"events"`
			Summary struct {
				Stages    []json.RawMessage `json:"stages"`
				DistCalcs int64             `json:"dist_calcs"`
			} `json:"summary"`
		} `json:"explain"`
	}
	s.post("/v1/join/k?explain=1", map[string]any{"left": "left", "right": "right", "k": 20}, &explained)
	switch ex := explained.Explain; {
	case ex == nil:
		t.Fatal("?explain=1: response has no explain block")
	case len(ex.Events) == 0 || len(ex.Summary.Stages) == 0:
		t.Fatalf("?explain=1: empty timeline (%d events, %d stages)", len(ex.Events), len(ex.Summary.Stages))
	case ex.Summary.DistCalcs != explained.Stats.DistCalcs:
		t.Fatalf("?explain=1: summary.dist_calcs %d, stats.dist_calcs %d", ex.Summary.DistCalcs, explained.Stats.DistCalcs)
	}

	// Ranked joins: the same pairs as the facade's, bit for bit.
	var ranked pairsJSON
	s.post("/v1/join/k", map[string]any{"left": "left", "right": "right", "k": 100}, &ranked)
	want, err := distjoin.KDistanceJoin(left, right, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "join/k", ranked.Pairs, want)

	s.post("/v1/join/closest", map[string]any{"index": "left", "k": 50}, &ranked)
	if want, err = distjoin.KClosestPairs(left, 50, nil); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "join/closest", ranked.Pairs, want)

	// Within, cut at its limit.
	const maxDist, limit = 5000.0, 100
	var within struct {
		pairsJSON
		Truncated bool `json:"truncated"`
	}
	s.post("/v1/join/within", map[string]any{"left": "left", "right": "right", "max_dist": maxDist, "limit": limit}, &within)
	all := 0
	if err := distjoin.WithinJoin(left, right, maxDist, nil, func(distjoin.Pair) bool { all++; return true }); err != nil {
		t.Fatal(err)
	}
	if all <= limit {
		t.Fatalf("join/within: the facade finds %d pairs, which a limit of %d does not cut", all, limit)
	}
	if len(within.Pairs) != limit || !within.Truncated {
		t.Fatalf("join/within: %d pairs, truncated %v; want the first %d of %d, truncated", len(within.Pairs), within.Truncated, limit, all)
	}
	for _, p := range within.Pairs {
		if !(p.Dist <= maxDist) {
			t.Fatalf("join/within: pair (%d, %d) at %v, beyond max_dist %v", p.Left, p.Right, p.Dist, maxDist)
		}
	}

	// A cursor: open with 2048-pair pages (an omitted batch_k makes the
	// stages page-sized), one next, close. Its two pages are the first
	// 4096 pairs of the facade's incremental join.
	const page = 2048
	var open, next struct {
		pairsJSON
		Cursor string `json:"cursor"`
		Done   bool   `json:"done"`
	}
	s.post("/v1/join/incremental", map[string]any{"left": "left", "right": "right", "page_size": page}, &open)
	if open.Cursor == "" || open.Done {
		t.Fatalf("incremental: open returned cursor %q, done %v", open.Cursor, open.Done)
	}
	s.post("/v1/join/incremental/next", map[string]any{"cursor": open.Cursor, "page_size": page}, &next)
	s.post("/v1/join/incremental/close", map[string]any{"cursor": open.Cursor}, nil)
	it, err := distjoin.IncrementalJoin(left, right, &distjoin.Options{BatchK: page})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	want = nil
	for len(want) < 2*page {
		p, ok := it.Next()
		if !ok {
			t.Fatalf("in-process incremental join ended after %d pairs: %v", len(want), it.Err())
		}
		want = append(want, p)
	}
	samePairs(t, "incremental open", open.Pairs, want[:page])
	samePairs(t, "incremental next", next.Pairs, want[page:])

	s.stop()
	checkRequestLog(t, s.stderr)
}

// pairsJSON is the "pairs" array of a query or cursor response.
type pairsJSON struct {
	Pairs []wirePair `json:"pairs"`
}

type wirePair struct {
	Left  int64   `json:"left"`
	Right int64   `json:"right"`
	Dist  float64 `json:"dist"`
}

// samePairs fails unless the served pairs are want: the same IDs and
// the same distance bits, in the same order.
func samePairs(t *testing.T, family string, got []wirePair, want []distjoin.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: served %d pairs, the facade returns %d", family, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Left != w.LeftID || g.Right != w.RightID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
			t.Fatalf("%s: pair %d served as (%d, %d, %v), the facade returns (%d, %d, %v)",
				family, i, g.Left, g.Right, g.Dist, w.LeftID, w.RightID, w.Dist)
		}
	}
}

func mustIndex(t *testing.T, items []rtree.Item) *distjoin.Index {
	t.Helper()
	idx, err := newIndex(items)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// smokeServer is the binary under test, running as a child process on
// a loopback port of its own choosing.
type smokeServer struct {
	t      *testing.T
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	done   bool       // exited has been received from
	stderr string     // path of the file the server's stderr goes to
	base   string     // http://127.0.0.1:<port>
	client *http.Client
}

// startServer runs bin on an ephemeral loopback port with args and
// waits until it answers /healthz. A server still running when the test
// ends is killed; a failed test logs the tail of its stderr.
func startServer(t *testing.T, bin, dir string, args ...string) *smokeServer {
	t.Helper()
	s := &smokeServer{
		t:      t,
		exited: make(chan error, 1),
		stderr: filepath.Join(dir, "stderr.log"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	logFile, err := os.Create(s.stderr)
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addr")
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	s.cmd.Stderr = logFile
	err = s.cmd.Start()
	logFile.Close() // the child has its own descriptor
	if err != nil {
		t.Fatal(err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	t.Cleanup(func() {
		if !s.done {
			s.cmd.Process.Kill()
			<-s.exited
		}
		if t.Failed() {
			t.Logf("server stderr, last lines:\n%s", tail(s.stderr, 20))
		}
	})

	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			s.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server not healthy after 30 s")
		}
		select {
		case err := <-s.exited:
			s.done = true
			t.Fatalf("server exited during start-up: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// post sends body as JSON to path and decodes the answer, which must be
// a 200, into out (when non-nil). Every /v1 answer carries the
// X-Distjoin-Query-Id header, and a body that names its query_id must
// name the same one.
func (s *smokeServer) post(path string, body, out any) {
	t := s.t
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	qid := resp.Header.Get("X-Distjoin-Query-Id")
	if qid == "" {
		t.Fatalf("POST %s: no X-Distjoin-Query-Id header", path)
	}
	var id struct {
		QueryID *string `json:"query_id"`
	}
	if err := json.Unmarshal(raw, &id); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	if id.QueryID != nil && *id.QueryID != qid {
		t.Fatalf("POST %s: body query_id %q, header %q", path, *id.QueryID, qid)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
}

// stop sends SIGTERM and requires exit status 0 within 10 s.
func (s *smokeServer) stop() {
	t := s.t
	t.Helper()
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-s.exited:
		s.done = true
		if err != nil {
			t.Fatalf("server after SIGTERM: %v, want exit status 0", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server still running 10 s after SIGTERM")
	}
}

// checkRequestLog requires at least one structured "request" record in
// the server's stderr, every key of serving.RequestLogKeys on each, and
// one at level WARN. Lines that are not JSON are the plain start-up and
// shutdown notes.
func checkRequestLog(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := serving.RequestLogKeys()
	requests, warns := 0, 0
	for i, line := range bytes.Split(raw, []byte("\n")) {
		var rec map[string]any
		if json.Unmarshal(line, &rec) != nil || rec["msg"] != "request" {
			continue
		}
		requests++
		for _, key := range keys {
			if _, ok := rec[key]; !ok {
				t.Fatalf("stderr line %d: request record has no %q: %s", i+1, key, line)
			}
		}
		if rec["level"] == "WARN" {
			warns++
		}
	}
	if requests == 0 {
		t.Fatal("stderr holds no request record")
	}
	if warns == 0 {
		t.Fatalf("none of %d request records is at WARN, though the slow-query threshold is 1 ms", requests)
	}
}

// tail returns the last n lines of the file at path.
func tail(path string, n int) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}
