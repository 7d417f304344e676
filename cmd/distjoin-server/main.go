// Command distjoin-server serves distance-join queries over HTTP: it
// bulk-loads one or more datasets into R-tree indexes and exposes the
// /v1 query API of internal/serving — k-distance joins, k closest
// pairs, within-distance joins, and paginated incremental joins —
// plus the observability surface (/metrics, /queries, /healthz,
// /debug/...) on one listener.
//
// Serve two dataset files:
//
//	distjoin-server -addr :8600 -data left=a.djds -data right=b.csv
//
// Or bring up a demo server over synthetic data:
//
//	distjoin-server -addr 127.0.0.1:0 -demo 5000 -addr-file /tmp/addr
//
// The server drains gracefully on SIGINT/SIGTERM: new queries are
// rejected with 503, queries already admitted run to completion
// (bounded by -drain), then the process exits 0. See docs/serving.md
// for the wire schema. TestServeSmoke builds this binary, serves the
// demo data, drives every /v1 family and checks the answers, the
// request log and the exit; the repository benchmark (benchmark/)
// measures it under load.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/serving"
)

// dataList collects repeated -data name=path flags.
type dataList []struct{ name, path string }

func (d *dataList) String() string {
	parts := make([]string, len(*d))
	for i, e := range *d {
		parts[i] = e.name + "=" + e.path
	}
	return strings.Join(parts, ",")
}

func (d *dataList) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*d = append(*d, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8600", "listen address (use \":0\" for an ephemeral port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts driving -addr :0)")
		demo        = flag.Int("demo", 0, "instead of -data files, serve synthetic datasets \"left\" and \"right\" with this many objects each")
		seed        = flag.Int64("seed", 42, "seed for -demo data")
		maxInFlight = flag.Int("max-inflight", 0, "queries executing concurrently (0 = GOMAXPROCS)")
		maxQueued   = flag.Int("max-queued", 0, "queries waiting for a slot before 429s (0 = 2x max-inflight)")
		defDeadline = flag.Duration("default-deadline", 0, "per-query deadline when the request sets none (0 = 30s)")
		maxDeadline = flag.Duration("max-deadline", 0, "clamp on client-requested deadlines (0 = 2m)")
		defQueueMem = flag.Int("default-queue-mem", 0, "per-query main-queue memory budget in bytes (0 = engine default)")
		maxQueueMem = flag.Int("max-queue-mem", 0, "clamp on client-requested queue memory (0 = 8 MiB)")
		maxK        = flag.Int("max-k", 0, "largest accepted k (0 = 100000)")
		maxCursors  = flag.Int("max-cursors", 0, "open incremental cursors allowed at once (0 = 64)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget before in-flight work is aborted")
		slowQuery   = flag.Duration("slow-query", 0, "slow-query threshold: requests strictly slower are logged at WARN and retained on /debug/slowlog (0 = 1s)")
		slowLogCap  = flag.Int("slowlog-capacity", 0, "slow-query records retained for /debug/slowlog (0 = 128)")
		requestLog  = flag.Bool("request-log", true, "emit one structured JSON log line per /v1 request on stderr")
	)
	var data dataList
	flag.Var(&data, "data", "dataset to serve as name=path (repeatable; .djds binary or .csv)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("distjoin-server: ")

	if len(data) == 0 && *demo <= 0 {
		fmt.Fprintln(os.Stderr, "distjoin-server: no datasets: pass -data name=path (repeatable) or -demo n")
		flag.Usage()
		os.Exit(2)
	}

	// The request log is structured JSON on stderr, one line per /v1
	// request, separate from the human-oriented startup/shutdown notes
	// that go through the plain log package.
	var reqLogger *slog.Logger
	if *requestLog {
		reqLogger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	reg := distjoin.NewRegistry()
	srv := serving.New(serving.Config{
		MaxInFlight:          *maxInFlight,
		MaxQueued:            *maxQueued,
		DefaultDeadline:      *defDeadline,
		MaxDeadline:          *maxDeadline,
		DefaultQueueMemBytes: *defQueueMem,
		MaxQueueMemBytes:     *maxQueueMem,
		MaxK:                 *maxK,
		MaxCursors:           *maxCursors,
		Registry:             reg,
		Logger:               reqLogger,
		SlowQueryThreshold:   *slowQuery,
		SlowLogCapacity:      *slowLogCap,
	})

	for _, e := range data {
		items, err := datagen.Load(e.path)
		check(err)
		check(addIndex(srv, e.name, items))
		log.Printf("loaded %q: %d objects from %s", e.name, len(items), e.path)
	}
	if *demo > 0 {
		left, right := demoItems(*seed, *demo)
		check(addIndex(srv, "left", left))
		check(addIndex(srv, "right", right))
		log.Printf("demo datasets \"left\" and \"right\": %d objects each (seed %d)", *demo, *seed)
	}

	httpSrv, err := obsrv.ServeHandler(*addr, srv.Handler())
	check(err)
	if *addrFile != "" {
		check(os.WriteFile(*addrFile, []byte(httpSrv.Addr()+"\n"), 0o644))
	}
	log.Printf("serving on http://%s (drain budget %v)", httpSrv.Addr(), *drain)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	log.Printf("%v: draining...", got)

	// Drain order: the query scheduler first (rejects new queries,
	// waits for admitted ones), then the HTTP server (flushes in-flight
	// response bodies). Either step exceeding the budget escalates to a
	// hard stop so the process always exits.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain budget exceeded (%v); aborting in-flight queries", err)
		srv.Close()
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		check(httpSrv.Close())
	}
	log.Printf("stopped")
}

// demoItems is the synthetic data -demo n serves: "left" uniform,
// "right" in eight Gaussian clusters, n objects each.
func demoItems(seed int64, n int) (left, right []rtree.Item) {
	return datagen.Uniform(seed, n, datagen.World, 0),
		datagen.GaussianClusters(seed+1, n, 8, datagen.World, 500, 0)
}

// addIndex bulk-loads items and registers the index under name.
func addIndex(srv *serving.Server, name string, items []rtree.Item) error {
	idx, err := newIndex(items)
	if err != nil {
		return err
	}
	return srv.AddIndex(name, idx)
}

// newIndex bulk-loads items with the facade's default configuration.
func newIndex(items []rtree.Item) (*distjoin.Index, error) {
	objs := make([]distjoin.Object, len(items))
	for i, it := range items {
		objs[i] = distjoin.Object{ID: it.Obj, Rect: it.Rect}
	}
	return distjoin.NewIndex(objs, nil)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "distjoin-server: %v\n", err)
		os.Exit(1)
	}
}
