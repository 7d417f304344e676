package serving

import (
	"net/http"

	"distjoin"
)

// ?explain=1 support: the blocking /v1 query endpoints accept an
// explain query parameter; when set, the server installs a per-request
// tracer and the response embeds the merged trace timeline plus a
// digest — per-stage durations, spill/reload activity — so a client
// can see where its query spent its time without server-side log
// access. The dist-calc total in the digest comes from the same Stats
// collector as the response's stats block, so the two always agree.

// wantExplain reports whether the request opted into the trace
// timeline.
func wantExplain(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true":
		return true
	}
	return false
}

// stageSpan is one stage's [start, end] window on the trace timeline,
// in microseconds since the tracer (and hence the query) started.
type stageSpan struct {
	Algo       string `json:"algo,omitempty"`
	Stage      string `json:"stage"`
	StartUS    int64  `json:"start_us"`
	EndUS      int64  `json:"end_us"`
	DurationUS int64  `json:"duration_us"`
	// Results is the cumulative result count reported at stage end.
	Results int64 `json:"results,omitempty"`
}

// explainSummary is the digest of the trace timeline.
type explainSummary struct {
	DurationUS    int64       `json:"duration_us"`
	Stages        []stageSpan `json:"stages"`
	Expansions    int         `json:"expansions"`
	Spills        int         `json:"spills"`
	SpilledPairs  int64       `json:"spilled_pairs"`
	Reloads       int         `json:"reloads"`
	ReloadedPairs int64       `json:"reloaded_pairs"`
	EDmaxUpdates  int         `json:"edmax_updates"`
	Compensations int         `json:"compensations"`
	// DistCalcs and QueueInserts mirror the response's stats block
	// (same collector), tying the timeline to the counters.
	DistCalcs    int64 `json:"dist_calcs"`
	QueueInserts int64 `json:"queue_inserts"`
}

// explainJSON is the explain block of a query response.
type explainJSON struct {
	Events  []distjoin.TraceEvent `json:"events"`
	Dropped uint64                `json:"dropped"`
	Summary explainSummary        `json:"summary"`
}

// buildExplain digests the tracer's buffered events. st supplies the
// counter totals (the same collector rendered into the response's
// stats block).
func buildExplain(tr *distjoin.Tracer, st *distjoin.Stats) *explainJSON {
	events := tr.Events()
	sum := explainSummary{
		DistCalcs:    st.DistCalcs(),
		QueueInserts: st.QueueInserts(),
	}
	// Open stage spans by algo+stage, supporting repeated stages
	// (AM-IDJ runs one span per incremental stage).
	open := make(map[string][]int) // key -> indexes into sum.Stages
	key := func(algo, stage string) string { return algo + "\x00" + stage }
	for _, ev := range events {
		if ev.At > sum.DurationUS {
			sum.DurationUS = ev.At
		}
		switch ev.Kind {
		case distjoin.TraceKindStageStart:
			k := key(ev.Algo, ev.Stage)
			open[k] = append(open[k], len(sum.Stages))
			sum.Stages = append(sum.Stages, stageSpan{
				Algo:    ev.Algo,
				Stage:   ev.Stage,
				StartUS: ev.At,
				EndUS:   ev.At,
			})
		case distjoin.TraceKindStageEnd:
			k := key(ev.Algo, ev.Stage)
			if idxs := open[k]; len(idxs) > 0 {
				i := idxs[len(idxs)-1]
				open[k] = idxs[:len(idxs)-1]
				sum.Stages[i].EndUS = ev.At
				sum.Stages[i].DurationUS = ev.At - sum.Stages[i].StartUS
				sum.Stages[i].Results = ev.Count
			}
		case distjoin.TraceKindExpansion:
			sum.Expansions++
		case distjoin.TraceKindQueueSpill:
			sum.Spills++
			sum.SpilledPairs += ev.Count
		case distjoin.TraceKindQueueReload:
			sum.Reloads++
			sum.ReloadedPairs += ev.Count
		case distjoin.TraceKindEDmaxUpdate:
			sum.EDmaxUpdates++
		case distjoin.TraceKindCompensation:
			sum.Compensations++
		}
	}
	// A stage still open at the end of the timeline (the ring dropped
	// its end event, or the query aborted mid-stage) extends to the
	// last event.
	for _, idxs := range open {
		for _, i := range idxs {
			sum.Stages[i].EndUS = sum.DurationUS
			sum.Stages[i].DurationUS = sum.DurationUS - sum.Stages[i].StartUS
		}
	}
	if events == nil {
		events = []distjoin.TraceEvent{}
	}
	return &explainJSON{Events: events, Dropped: tr.Dropped(), Summary: sum}
}
