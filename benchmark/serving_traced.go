package main

import (
	"fmt"
	"sort"
	"time"
)

// traced is the traced run of a serving workload: a stretch of traffic
// whose numbers stand for the untraced state, then an equal stretch
// from which the spans are built. A request's children come from what
// the server says about it: the admission wait from the
// X-Distjoin-Admission-Wait header, the engine time from
// stats.elapsed_ms, and the codec time (decode, render, write,
// transport) as what is left of the client's latency.
func (e *serveEnv) traced() (*report, error) {
	half := e.cfg.measure() * 45 / 100
	un, err := e.traffic(half)
	if err != nil {
		return nil, err
	}
	tr, err := e.traffic(half)
	if err != nil {
		return nil, err
	}
	scrape, err := e.srv.scrape()
	if err != nil {
		return nil, err
	}
	scrapeMS := ms(scrape) / tr.speed
	if un.ops() == 0 || tr.ops() == 0 {
		return nil, fmt.Errorf("%s: no op completed correctly (first failure: %v)", e.w.Name, firstOf(un.firstErr, tr.firstErr))
	}

	rec := newRecorder()
	rec.epoch = tr.start
	sort.Slice(tr.samples, func(i, j int) bool { return tr.samples[i].arrival < tr.samples[j].arrival })
	var (
		byKind                       [numReqKinds][]float64
		waits, engines, codecs, late []float64
		codecShares                  []float64
		codecUS, pairs, bytes        float64
	)
	for i := range tr.samples {
		s := &tr.samples[i]
		spans, parent := e.opSpans(rec, s)
		rec.addOp(spans, parent)
		late = append(late, ms(s.sent.Sub(s.due)))
		for _, q := range s.reqs {
			bytes += float64(q.bytes)
			if q.lat == 0 {
				continue // the request failed before a response arrived
			}
			byKind[q.kind] = append(byKind[q.kind], ms(q.lat)/tr.speed)
			if q.wait >= 0 {
				waits = append(waits, ms(q.wait)/tr.speed)
			}
			if q.hasStats {
				codec := q.lat - q.wait - q.engine
				engines = append(engines, ms(q.engine)/tr.speed)
				codecs = append(codecs, ms(codec)/tr.speed)
				codecShares = append(codecShares, float64(codec)/float64(q.lat))
				codecUS += float64(codec) / float64(time.Microsecond) / tr.speed
				pairs += float64(q.pairs)
			}
		}
	}
	for _, v := range [][]float64{waits, engines, codecs, late, codecShares, byKind[0], byKind[1], byKind[2], byKind[3]} {
		sort.Float64s(v)
	}
	attempted := float64(tr.attempted)
	m := map[string]float64{
		"serving.admission_wait_ms_p50": percentile(waits, 50),
		"serving.admission_wait_ms_p90": percentile(waits, 90),
		"serving.engine_ms_p50":         percentile(engines, 50),
		"serving.codec_ms_p50":          percentile(codecs, 50),
		"serving.codec_share":           percentile(codecShares, 50),
		"serving.resp_kb_per_op":        bytes / 1024 / attempted,
		"serving.shed_share":            float64(tr.refused) / attempted,
		"serving.slo_miss_share":        float64(tr.sloMisses) / attempted,
		"serving.join_k_ms_p50":         percentile(byKind[reqJoinK], 50),
		"serving.within_ms_p50":         percentile(byKind[reqWithin], 50),
		"serving.cursor_open_ms_p50":    percentile(byKind[reqOpen], 50),
		"serving.cursor_next_ms_p50":    percentile(byKind[reqNext], 50),
		"serving.gc_pause_ms_per_s":     ms(tr.gcPause) / tr.wall.Seconds(),
		"obsrv.scrape_ms":               scrapeMS,
		"trace.overhead_share":          percentile(tr.latMS, 50)/percentile(un.latMS, 50) - 1,
		"loadgen.late_ms_p90":           percentile(late, 90),
		"loadgen.late_ms_max":           percentile(late, 100),
		"loadgen.cpu_share":             float64(tr.loadgenCPU) / float64(tr.loadgenCPU+tr.serverCPU),
	}
	if pairs > 0 {
		m["serving.codec_us_per_pair"] = codecUS / pairs
	}
	path, err := rec.write(e.cfg)
	if err != nil {
		return nil, fmt.Errorf("write span file: %w", err)
	}
	r := &report{
		Workload: e.w.Name, Seed: e.cfg.seed, Traced: true,
		Attempted: un.attempted + tr.attempted, Failed: un.failed + tr.failed, Wrong: un.wrong + tr.wrong,
		Metrics: m,
	}
	if err := firstOf(un.firstErr, tr.firstErr); err != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("first failure: %v", err))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("untraced %d ops, traced %d ops, host-speed factor %.4f", un.ops(), tr.ops(), tr.speed),
		fmt.Sprintf("span file %s: %d spans of %d ops kept, totals over all", path, len(rec.kept), (rec.ops+traceEvery-1)/traceEvery))
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// opSpans lays one op out as spans: the op from its due time to its
// completion, how late the generator sent it, and under it one span per
// request with admission wait, engine and codec children.
func (e *serveEnv) opSpans(rec *recorder, s *opSample) ([]span, []int) {
	spans := []span{{Name: "op." + e.w.Ops[s.op].Name, Start: rec.ns(s.due), End: rec.ns(s.done)}}
	parent := []int{-1}
	add := func(p int, name string, from time.Time, d time.Duration) int {
		spans = append(spans, span{Name: name, Start: rec.ns(from), End: rec.ns(from.Add(d))})
		parent = append(parent, p)
		return len(spans) - 1
	}
	if s.sent.After(s.due) {
		add(0, "loadgen.late", s.due, s.sent.Sub(s.due))
	}
	for _, q := range s.reqs {
		if q.lat == 0 {
			continue
		}
		req := add(0, "serving."+reqNames[q.kind], q.start, q.lat)
		at := q.start
		if q.wait >= 0 {
			add(req, "serving.admission_wait", at, q.wait)
			at = at.Add(q.wait)
		}
		if q.hasStats {
			add(req, "serving.engine", at, q.engine)
			at = at.Add(q.engine)
			add(req, "serving.codec", at, q.lat-q.wait-q.engine)
		}
	}
	return spans, parent
}
