// Command distjoin-load drives a running distjoin-server with
// concurrent clients issuing mixed traffic — blocking k-distance
// joins, within-distance joins, and paginated incremental joins — and
// reports per-family latency percentiles plus the server's shed-load
// behaviour (429/503 counts).
//
//	distjoin-server -addr 127.0.0.1:0 -demo 5000 -addr-file /tmp/a &
//	distjoin-load -addr "$(cat /tmp/a)" -clients 8 -duration 10s
//
// -quick selects a small preset suitable for CI smoke tests. The
// percentiles are printed, not recorded: the repository benchmark
// (benchmark/) owns the measured serving numbers.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"distjoin/internal/serving"
)

// opKind indexes the traffic families.
type opKind int

const (
	opKDist opKind = iota
	opWithin
	opIncremental
	numOps
)

func (k opKind) String() string {
	switch k {
	case opKDist:
		return "kdist"
	case opWithin:
		return "within"
	case opIncremental:
		return "incremental"
	}
	return "unknown"
}

// tally accumulates one client's observations; merged after the run so
// the hot path takes no shared lock. Client-observed latency and
// server-measured admission wait (the X-Distjoin-Admission-Wait
// response header) are tracked separately: the first includes network
// and serialization, the second isolates queueing inside the server.
type tally struct {
	latencies [numOps][]time.Duration
	waits     [numOps][]time.Duration
	shed      int64 // 429/503: the server pushing back, not a failure
	errors    []string
}

func (t *tally) fail(format string, args ...any) {
	if len(t.errors) < 8 {
		t.errors = append(t.errors, fmt.Sprintf(format, args...))
	} else {
		t.errors = append(t.errors[:8], "...")
	}
}

func main() {
	var (
		addr     = flag.String("addr", "", "server address, host:port (required)")
		clients  = flag.Int("clients", 2*runtime.GOMAXPROCS(0), "concurrent client goroutines")
		duration = flag.Duration("duration", 10*time.Second, "how long to generate load")
		left     = flag.String("left", "left", "left dataset name")
		right    = flag.String("right", "right", "right dataset name")
		k        = flag.Int("k", 100, "k for k-distance queries")
		maxDist  = flag.Float64("max-dist", 5000, "distance for within queries")
		limit    = flag.Int("limit", 1000, "result cap for within queries")
		page     = flag.Int("page", 64, "incremental page size")
		pages    = flag.Int("pages", 3, "pages pulled per incremental query")
		quick    = flag.Bool("quick", false, "CI smoke preset: 4 clients, 2s, small queries")
		explain  = flag.Bool("check-explain", false, "after the run, issue one ?explain=1 query and validate the embedded trace timeline")
		valLog   = flag.String("validate-log", "", "validate a server request-log file (one parseable \"request\" line with the documented keys) and exit; no load is generated")
	)
	flag.Parse()
	if *valLog != "" {
		if err := validateRequestLog(*valLog); err != nil {
			fmt.Fprintf(os.Stderr, "distjoin-load: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("distjoin-load: %s: structured request log ok\n", *valLog)
		return
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "distjoin-load: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	if *quick {
		*clients, *duration, *k, *limit, *pages = 4, 2*time.Second, 20, 100, 2
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: 60 * time.Second}

	// Fail fast when the server isn't there.
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		fmt.Fprintf(os.Stderr, "distjoin-load: server not reachable: %v\n", err)
		os.Exit(1)
	}
	drain(resp.Body)

	stop := time.Now().Add(*duration)
	tallies := make([]tally, *clients)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for i := 0; time.Now().Before(stop); i++ {
				op := opKind((c + i) % int(numOps))
				start := time.Now()
				var wait time.Duration
				ok := runOp(client, base, op, opParams{
					left: *left, right: *right, k: *k,
					maxDist: *maxDist, limit: *limit,
					page: *page, pages: *pages,
				}, t, &wait)
				if ok {
					t.latencies[op] = append(t.latencies[op], time.Since(start))
					t.waits[op] = append(t.waits[op], wait)
				}
			}
		}(c)
	}
	wg.Wait()

	// Merge and report.
	var (
		merged      [numOps][]time.Duration
		mergedWaits [numOps][]time.Duration
		shed        int64
		errs        []string
	)
	for i := range tallies {
		for op := opKind(0); op < numOps; op++ {
			merged[op] = append(merged[op], tallies[i].latencies[op]...)
			mergedWaits[op] = append(mergedWaits[op], tallies[i].waits[op]...)
		}
		shed += tallies[i].shed
		errs = append(errs, tallies[i].errors...)
	}

	fmt.Printf("distjoin-load: %d clients for %v against %s\n", *clients, *duration, base)
	total := 0
	for op := opKind(0); op < numOps; op++ {
		ls := merged[op]
		total += len(ls)
		if len(ls) == 0 {
			fmt.Printf("  %-12s no completed queries\n", op)
			continue
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		p50, p90, p99 := percentile(ls, 50), percentile(ls, 90), percentile(ls, 99)
		fmt.Printf("  %-12s n=%-6d p50=%-10v p90=%-10v p99=%v\n", op, len(ls), p50, p90, p99)
		// Server-measured admission wait, reported separately so
		// queueing inside the server is distinguishable from network
		// and execution time in the client-observed latency above.
		ws := mergedWaits[op]
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		w50, w99 := percentile(ws, 50), percentile(ws, 99)
		fmt.Printf("  %-12s admission-wait(server) p50=%-10v p99=%v\n", "", w50, w99)
	}
	fmt.Printf("  completed=%d shed(429/503)=%d errors=%d\n", total, shed, len(errs))
	for _, e := range errs {
		fmt.Printf("  error: %s\n", e)
	}

	if *explain {
		if err := checkExplain(client, base, opParams{left: *left, right: *right, k: *k}); err != nil {
			fmt.Fprintf(os.Stderr, "distjoin-load: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("  explain roundtrip ok")
	}

	if len(errs) > 0 || total == 0 {
		os.Exit(1)
	}
}

type opParams struct {
	left, right string
	k, limit    int
	maxDist     float64
	page, pages int
}

// runOp issues one query of the given family, returning whether it
// completed (shed and failed queries don't count toward latency).
// wait accumulates the server-reported admission wait across the op's
// requests (an incremental op spans several).
func runOp(client *http.Client, base string, op opKind, p opParams, t *tally, wait *time.Duration) bool {
	switch op {
	case opKDist:
		return postOK(client, base+"/v1/join/k", map[string]any{
			"left": p.left, "right": p.right, "k": p.k,
		}, nil, t, wait)
	case opWithin:
		return postOK(client, base+"/v1/join/within", map[string]any{
			"left": p.left, "right": p.right, "max_dist": p.maxDist, "limit": p.limit,
		}, nil, t, wait)
	case opIncremental:
		var open struct {
			Cursor string `json:"cursor"`
			Done   bool   `json:"done"`
		}
		if !postOK(client, base+"/v1/join/incremental", map[string]any{
			"left": p.left, "right": p.right, "page_size": p.page,
		}, &open, t, wait) {
			return false
		}
		if open.Done || open.Cursor == "" {
			return true
		}
		for i := 1; i < p.pages; i++ {
			var next struct {
				Done bool `json:"done"`
			}
			if !postOK(client, base+"/v1/join/incremental/next", map[string]any{
				"cursor": open.Cursor, "page_size": p.page,
			}, &next, t, wait) {
				return false
			}
			if next.Done {
				return true
			}
		}
		return postOK(client, base+"/v1/join/incremental/close", map[string]any{
			"cursor": open.Cursor,
		}, nil, t, wait)
	}
	return false
}

// postOK posts a JSON body and decodes a 200 response into out (when
// non-nil). Non-200 statuses are never ignored: shed responses
// (429/503) are counted, anything else is recorded as an error with
// the server's message. When wait is non-nil, the server's
// X-Distjoin-Admission-Wait header (integer microseconds) is added to
// it.
func postOK(client *http.Client, url string, body any, out any, t *tally, wait *time.Duration) bool {
	b, err := json.Marshal(body)
	if err != nil {
		t.fail("marshal: %v", err)
		return false
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.fail("POST %s: %v", url, err)
		return false
	}
	defer drain(resp.Body)
	if wait != nil {
		if us, err := strconv.ParseInt(resp.Header.Get("X-Distjoin-Admission-Wait"), 10, 64); err == nil {
			*wait += time.Duration(us) * time.Microsecond
		}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		t.shed++
		return false
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		t.fail("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
		return false
	}
	if out == nil {
		return true
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.fail("POST %s: decode: %v", url, err)
		return false
	}
	return true
}

// checkExplain does one ?explain=1 k-distance query and validates the
// embedded trace timeline: events present, stage spans well-formed,
// and the digest's dist-calc total equal to the stats block's (both
// must read the same collector). Used by the CI smoke test.
func checkExplain(client *http.Client, base string, p opParams) error {
	b, _ := json.Marshal(map[string]any{"left": p.left, "right": p.right, "k": p.k})
	resp, err := client.Post(base+"/v1/join/k?explain=1", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("explain query: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	qid := resp.Header.Get("X-Distjoin-Query-Id")
	if qid == "" {
		return fmt.Errorf("explain query: no X-Distjoin-Query-Id header")
	}
	var out struct {
		QueryID string `json:"query_id"`
		Stats   struct {
			DistCalcs int64 `json:"dist_calcs"`
		} `json:"stats"`
		Explain *struct {
			Events  []json.RawMessage `json:"events"`
			Summary struct {
				Stages []struct {
					Stage      string `json:"stage"`
					DurationUS int64  `json:"duration_us"`
				} `json:"stages"`
				DistCalcs int64 `json:"dist_calcs"`
			} `json:"summary"`
		} `json:"explain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("explain query: decode: %v", err)
	}
	if out.QueryID != qid {
		return fmt.Errorf("explain query: body query_id %q != header %q", out.QueryID, qid)
	}
	if out.Explain == nil {
		return fmt.Errorf("explain query: response has no explain block")
	}
	if len(out.Explain.Events) == 0 || len(out.Explain.Summary.Stages) == 0 {
		return fmt.Errorf("explain query: empty timeline (events=%d stages=%d)",
			len(out.Explain.Events), len(out.Explain.Summary.Stages))
	}
	if out.Explain.Summary.DistCalcs != out.Stats.DistCalcs {
		return fmt.Errorf("explain dist_calcs %d != stats dist_calcs %d",
			out.Explain.Summary.DistCalcs, out.Stats.DistCalcs)
	}
	return nil
}

// validateRequestLog asserts that path holds at least one structured
// request-log line and that every one of them carries every key of the
// serving layer's schema (serving.RequestLogKeys, documented in
// docs/serving.md). The CI smoke test runs this against the demo
// server's stderr.
func validateRequestLog(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	keys := serving.RequestLogKeys()
	lines, requests := 0, 0
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // startup noise from the plain logger is fine
		}
		if rec["msg"] != "request" {
			continue
		}
		requests++
		for _, key := range keys {
			if _, ok := rec[key]; !ok {
				return fmt.Errorf("%s:%d: request log line missing key %q: %s", path, lines, key, sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if requests == 0 {
		return fmt.Errorf("%s: no parseable request log line among %d lines", path, lines)
	}
	return nil
}

// percentile returns the pth percentile of sorted latencies
// (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (p*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// drain fully reads and closes a response body so the client can
// reuse the connection.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
