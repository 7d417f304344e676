package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distjoin"
)

// The load generator is one process with nproc connections and nproc
// goroutines. It stays out of its own numbers: response bodies are read
// into one reused buffer per connection, the answer is checked with a
// byte comparison against the expected "pairs" rendering, and the one
// number needed from the body (stats.elapsed_ms) is pulled with a scan
// of its tail. Decoding a 530 KB response into a map costs about as
// much CPU as the server spent producing it.

// reqKind is one HTTP request shape; an op is one or more requests.
type reqKind int

const (
	reqJoinK reqKind = iota
	reqWithin
	reqOpen
	reqNext
	reqClose
	numReqKinds
)

var reqNames = [numReqKinds]string{"join_k", "within", "cursor_open", "cursor_next", "cursor_close"}

var reqPaths = [numReqKinds]string{
	"/v1/join/k", "/v1/join/within", "/v1/join/incremental",
	"/v1/join/incremental/next", "/v1/join/incremental/close",
}

// reqSample is what the generator learned from one request. Durations
// are as measured; the caller normalises.
type reqSample struct {
	kind     reqKind
	start    time.Time
	lat      time.Duration
	wait     time.Duration // admission wait the server reported; -1 if none
	engine   time.Duration // stats.elapsed_ms; -1 if the response has none
	bytes    int
	pairs    int
	hasStats bool
}

// plannedOp is one entry of the mix with its request bodies and the
// bytes a correct response must contain.
type plannedOp struct {
	spec  serveOp
	body  []byte   // join/k, join/within or incremental open
	pages [][]byte // expected `"pairs":[...]` of each response, in order
	count []int    // pairs in each page
}

type pairJSON struct {
	Left  int64   `json:"left"`
	Right int64   `json:"right"`
	Dist  float64 `json:"dist"`
}

// renderPairs is the server's rendering of a pairs array, key
// included. The server encodes the same struct with encoding/json.
func renderPairs(pairs []distjoin.Pair) ([]byte, error) {
	out := make([]pairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = pairJSON{p.LeftID, p.RightID, p.Dist}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return append([]byte(`"pairs":`), b...), nil
}

func (op *plannedOp) expect(pairs []distjoin.Pair) error {
	b, err := renderPairs(pairs)
	if err != nil {
		return err
	}
	op.pages = append(op.pages, b)
	op.count = append(op.count, len(pairs))
	return nil
}

// planOps verifies every query of the mix in process, on indexes built
// the way the server builds its own, and records the expected bytes.
func planOps(ds dataset, ops []serveOp) ([]plannedOp, error) {
	left, err := distjoin.NewIndex(objects(ds.streets), nil)
	if err != nil {
		return nil, err
	}
	right, err := distjoin.NewIndex(objects(ds.hydro), nil)
	if err != nil {
		return nil, err
	}
	var plan []plannedOp
	for _, spec := range ops {
		op := plannedOp{spec: spec}
		switch spec.Kind {
		case opJoinK:
			op.body = []byte(fmt.Sprintf(`{"left":"left","right":"right","k":%d}`, spec.K))
			pairs, err := verifyTopK(ds, left, right, spec.K, 0)
			if err != nil {
				return nil, err
			}
			if err := op.expect(pairs); err != nil {
				return nil, err
			}
		case opWithin:
			op.body = []byte(fmt.Sprintf(`{"left":"left","right":"right","max_dist":%g,"limit":%d}`, spec.MaxDist, spec.Limit))
			pairs, err := verifyWithin(ds, left, right, spec.MaxDist, spec.Limit)
			if err != nil {
				return nil, err
			}
			if err := op.expect(pairs); err != nil {
				return nil, err
			}
		case opCursor:
			op.body = []byte(fmt.Sprintf(`{"left":"left","right":"right","page_size":%d}`, spec.Page))
			pages, err := verifyIncremental(ds, left, right, spec.Page, spec.Nexts+1)
			if err != nil {
				return nil, err
			}
			for _, pg := range pages {
				if err := op.expect(pg); err != nil {
					return nil, err
				}
			}
		}
		plan = append(plan, op)
	}
	return plan, nil
}

// conn is one of the generator's connections with its reused buffers.
type conn struct {
	base string
	hc   *http.Client
	buf  []byte // response body
	req  []byte // request body of next/close
}

func newConn(base string, hc *http.Client) *conn {
	return &conn{base: base, hc: hc, buf: make([]byte, 0, 1<<20)}
}

// refusedError is a 429 or 503: the server pushing back.
type refusedError struct{ status int }

func (e refusedError) Error() string { return fmt.Sprintf("refused with status %d", e.status) }

// post sends one request and reads the whole response into c.buf.
func (c *conn) post(kind reqKind, body []byte) (reqSample, error) {
	s := reqSample{kind: kind, start: time.Now(), wait: -1, engine: -1}
	resp, err := c.hc.Post(c.base+reqPaths[kind], "application/json", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	c.buf = c.buf[:0]
	for {
		if len(c.buf) == cap(c.buf) {
			c.buf = append(c.buf, 0)[:len(c.buf)]
		}
		n, err := resp.Body.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			return s, err
		}
	}
	resp.Body.Close()
	s.lat = time.Since(s.start)
	s.bytes = len(c.buf)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return s, refusedError{resp.StatusCode}
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("%s: status %d: %s", reqPaths[kind], resp.StatusCode, bytes.TrimSpace(c.buf))
	}
	if us, err := strconv.ParseInt(resp.Header.Get("X-Distjoin-Admission-Wait"), 10, 64); err == nil {
		s.wait = time.Duration(us) * time.Microsecond
	}
	if ms, ok := tailNumber(c.buf, `"elapsed_ms":`); ok {
		s.engine = time.Duration(ms * float64(time.Millisecond))
		s.hasStats = true
	}
	return s, nil
}

// tailNumber finds the last occurrence of key in the final 256 bytes
// of body and parses the number after it.
func tailNumber(body []byte, key string) (float64, bool) {
	tail := body
	if len(tail) > 256 {
		tail = tail[len(tail)-256:]
	}
	i := bytes.LastIndex(tail, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := tail[i+len(key):]
	end := 0
	for end < len(rest) && (rest[end] == '-' || rest[end] == '+' || rest[end] == '.' || rest[end] == 'e' || rest[end] == 'E' || (rest[end] >= '0' && rest[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

// headString returns the string value of key if it occurs in the first
// 256 bytes of body.
func headString(body []byte, key string) (string, bool) {
	head := body
	if len(head) > 256 {
		head = head[:256]
	}
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return "", false
	}
	rest := head[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return string(rest[:j]), true
}

// wrongAnswer is a response that arrived but is not the verified one.
type wrongAnswer struct{ msg string }

func (e wrongAnswer) Error() string { return e.msg }

// checkPairsBytes compares the response in c.buf with the expected
// rendering. It runs after the request's clock has stopped.
func (c *conn) checkPairsBytes(want []byte) error {
	i := bytes.Index(c.buf, []byte(`"pairs":`))
	if i < 0 || !bytes.HasPrefix(c.buf[i:], want) {
		return wrongAnswer{`response "pairs" differ from the in-process answer on the same data`}
	}
	return nil
}

// do runs one op and appends a sample per request to out. The error is
// a refusedError, a wrongAnswer, or a transport or status failure.
func (c *conn) do(op *plannedOp, out []reqSample) ([]reqSample, error) {
	if op.spec.Kind != opCursor {
		kind := reqJoinK
		if op.spec.Kind == opWithin {
			kind = reqWithin
		}
		s, err := c.post(kind, op.body)
		s.pairs = op.count[0]
		out = append(out, s)
		if err != nil {
			return out, err
		}
		return out, c.checkPairsBytes(op.pages[0])
	}

	s, err := c.post(reqOpen, op.body)
	s.pairs = op.count[0]
	out = append(out, s)
	if err != nil {
		return out, err
	}
	if err := c.checkPairsBytes(op.pages[0]); err != nil {
		return out, err
	}
	cursor, ok := headString(c.buf, `"cursor":"`)
	if !ok {
		return out, wrongAnswer{"incremental open returned no cursor"}
	}
	for i := 1; i < len(op.pages); i++ {
		c.req = append(c.req[:0], `{"cursor":"`...)
		c.req = append(c.req, cursor...)
		c.req = append(c.req, `","page_size":`...)
		c.req = strconv.AppendInt(c.req, int64(op.spec.Page), 10)
		c.req = append(c.req, '}')
		s, err := c.post(reqNext, c.req)
		s.pairs = op.count[i]
		out = append(out, s)
		if err != nil {
			return out, err
		}
		if err := c.checkPairsBytes(op.pages[i]); err != nil {
			return out, err
		}
	}
	c.req = append(c.req[:0], `{"cursor":"`...)
	c.req = append(c.req, cursor...)
	c.req = append(c.req, `"}`...)
	s, err = c.post(reqClose, c.req)
	out = append(out, s)
	return out, err
}

// opSample is one op as the generator saw it.
type opSample struct {
	arrival int
	op      uint8 // index into the mix
	due     time.Time
	sent    time.Time
	done    time.Time
	err     error
	reqs    []reqSample
}

// clock lets a test drive the open loop with a fake time.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends arrival i at start + i*interval, whatever happened to
// the arrivals before it: a dispatcher hands each arrival to one of
// workers goroutines when it falls due. If all are busy the hand-over
// waits, and that wait, like a stall inside the server, lands in the
// arrival's latency, which is counted from its due time. do runs one
// arrival on one worker and fills in what it learned.
func openLoop(clk clock, n int, interval time.Duration, workers int, do func(worker int, s *opSample)) []opSample {
	samples := make([]opSample, n)
	work := make(chan int)
	var wg sync.WaitGroup
	start := clk.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				samples[i].sent = clk.Now()
				do(w, &samples[i])
				samples[i].done = clk.Now()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		samples[i].arrival = i
		samples[i].due = start.Add(time.Duration(i) * interval)
		clk.SleepUntil(samples[i].due)
		work <- i
	}
	close(work)
	wg.Wait()
	return samples
}

// closedLoopClients is workers callers, each sending its next op when
// the previous one completed, until dur has passed. Ops are taken from
// the schedule in turn.
func closedLoopClients(dur time.Duration, workers int, do func(worker int, s *opSample)) []opSample {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		perConn = make([][]opSample, workers)
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := opSample{arrival: int(next.Add(1) - 1)}
				s.sent = time.Now()
				s.due = s.sent
				do(w, &s)
				s.done = time.Now()
				perConn[w] = append(perConn[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []opSample
	for _, s := range perConn {
		all = append(all, s...)
	}
	return all
}

// clients is how many connections and goroutines the generator uses.
func clients() int { return runtime.GOMAXPROCS(0) }
