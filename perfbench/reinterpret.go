package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"time"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/leshouches"
	"daspos/internal/recast"
	"daspos/internal/xrand"
)

// The reinterpret workload is theorists waiting for RECAST answers: a
// closed loop in which each requester submits a Z' mass point through the
// HTTP front door, polls until it finishes, thinks, then submits the next.
// Every fourth submission repeats one of the requester's earlier models,
// so dedup answers from the archive are part of the mix. The think time
// keeps the two vCPUs of the reference machine about half busy rather than
// saturated, so an answer's time is mostly its own work, not queueing. It
// is drawn afresh for each submission, so the two requesters do not lock
// into one phase (back ends always overlapping, or never) for a whole run.
const (
	recastRequesters = 2
	recastEvents     = 200
	recastWorkers    = 2
	recastRepeatEach = 4
	recastPoll       = 2 * time.Millisecond
	recastThink      = 50 * time.Millisecond // mean; drawn uniformly from 10 to 90 ms
	recastAnalysis   = "GPD_2013_DIMUON_HIGHMASS"
	recastSchedule   = 4096 // submissions planned per requester
)

// plannedModel is one submission of a requester's schedule.
type plannedModel struct {
	model recast.ModelSpec
	// repeatOf is the index of the earlier submission this one repeats,
	// -1 for a fresh model.
	repeatOf int
	// think is how long the requester waits after the answer.
	think time.Duration
}

// modelSchedule is requester r's submission schedule, a function of the
// seed alone.
func modelSchedule(seed uint64, r, n int) []plannedModel {
	rng := xrand.New(mix(seed, uint64(1000+r)))
	plan := make([]plannedModel, n)
	var fresh []int
	for k := range plan {
		think := recastThink/5 + time.Duration(rng.Uint64n(uint64(recastThink*8/5)))
		if k%recastRepeatEach == recastRepeatEach-1 && len(fresh) > 0 {
			j := fresh[rng.Intn(len(fresh))]
			plan[k] = plannedModel{model: plan[j].model, repeatOf: j, think: think}
			continue
		}
		plan[k] = plannedModel{repeatOf: -1, think: think, model: recast.ModelSpec{
			Process:        "zprime",
			MassGeV:        float64(400 + 100*rng.Intn(21)),
			Events:         recastEvents,
			Seed:           rng.Uint64(),
			CrossSectionPb: 0.001,
		}}
		fresh = append(fresh, k)
	}
	return plan
}

// highMassSearch is the preserved analysis the requesters reinterpret.
func highMassSearch() *leshouches.AnalysisRecord {
	return &leshouches.AnalysisRecord{
		Name:        recastAnalysis,
		Description: "High-mass dimuon resonance search",
		Objects: []leshouches.ObjectDefinition{
			{Name: "sig_muon", Type: datamodel.ObjMuon, MinPt: 30, MaxAbsEta: 2.4},
		},
		Selection: []leshouches.Cut{
			{Variable: "count:sig_muon", Op: ">=", Value: 2},
			{Variable: "os_pair:sig_muon", Op: "==", Value: 1},
			{Variable: "inv_mass:sig_muon", Op: ">", Value: 400},
		},
		Background:     4.2,
		ObservedEvents: 5,
	}
}

type reinterpretEnv struct {
	cfg     config
	tr      *Tracer
	backend *tracedRecast
	srv     *recast.Server
	hts     *httptest.Server
	hc      *http.Client
	cancel  context.CancelFunc
	base    recast.ServerStatus // status after warm-up
}

func setupReinterpret(cfg config, tr *Tracer, _ any) (env, error) {
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, condTag, 1, 100, 10, condSeed); err != nil {
		return nil, err
	}
	full := &recast.FullSimBackend{Det: detector.Standard(), CondDB: db, Tag: condTag, Run: condRun,
		LuminosityPb: 20000, Workers: 1}
	wrapped, handle := wrapRecast(full, tr)
	svc := recast.NewService(wrapped)
	if err := svc.Subscribe(recast.Subscription{Name: recastAnalysis, Description: "High-mass dimuon search, 20/fb", Record: highMassSearch()}); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "recast-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := recast.NewServer(ctx, svc, recast.ServerConfig{
		JournalDir: dir, Workers: recastWorkers, QueueBound: 64, AutoApprove: true,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	srv.Start()
	e := &reinterpretEnv{cfg: cfg, tr: tr, backend: handle, srv: srv, cancel: cancel,
		hts: httptest.NewServer(srv.Handler()),
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: recastRequesters}, Timeout: 60 * time.Second}}
	// Warm-up: each requester's connection sends two requests through
	// admission, both server workers, the back end and the journals.
	outs := make([]outcome, recastRequesters)
	var wg sync.WaitGroup
	for r := range outs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var st requesterStats
			for k := 0; k < 2; k++ {
				warm := recast.ModelSpec{Process: "zprime", MassGeV: 1000, Events: recastEvents,
					Seed: mix(cfg.seed, uint64(1<<40+2*r+k)), CrossSectionPb: 0.001}
				e.answer(&outs[r], &st, fmt.Sprintf("warm-up-%d", r), 0, plannedModel{model: warm, repeatOf: -1}, nil)
			}
		}(r)
	}
	wg.Wait()
	for _, o := range outs {
		if o.failed > 0 {
			e.close()
			return nil, fmt.Errorf("warm-up: %s", o.failures[0])
		}
	}
	e.base = srv.Status()
	return e, nil
}

func (e *reinterpretEnv) close() {
	e.hts.Close()
	e.hc.CloseIdleConnections()
	e.srv.Close()
	e.cancel()
}

// requesterStats is one requester's measurements.
type requesterStats struct {
	answers, repeats, submits []float64
	polls                     int
}

func (e *reinterpretEnv) measure(o *outcome) error {
	stats := make([]requesterStats, recastRequesters)
	outs := make([]outcome, recastRequesters)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(e.cfg.seconds)
	for r := 0; r < recastRequesters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			plan := modelSchedule(e.cfg.seed, r, recastSchedule)
			results := make([]*recast.Result, len(plan))
			for k := 0; k < len(plan) && time.Now().Before(deadline); k++ {
				var orig *recast.Result
				if j := plan[k].repeatOf; j >= 0 {
					orig = results[j]
				}
				results[k] = e.answer(&outs[r], &stats[r], fmt.Sprintf("theorist-%d", r), e.tr.NewTrace(), plan[k], orig)
				time.Sleep(plan[k].think)
			}
		}(r)
	}
	wg.Wait()
	wall := time.Since(start)

	var all requesterStats
	for r := range stats {
		s := &stats[r]
		all.answers = append(all.answers, s.answers...)
		all.repeats = append(all.repeats, s.repeats...)
		all.submits = append(all.submits, s.submits...)
		all.polls += s.polls
		o.merge(outs[r])
	}
	n := float64(len(all.answers))
	o.ops = int64(n)
	o.e2e["latency_p50_ms"] = median(all.answers)
	o.e2e["answer_p50_ms"] = median(all.answers)
	o.note("answers", n, "count")
	o.note("answers_per_s", n/wall.Seconds(), "1/s")
	o.note("answer_p50_ms", median(all.answers), "ms")
	if p90, ok := tail(all.answers, 90); ok {
		o.note("answer_p90_ms", p90, "ms")
	} else {
		o.report = append(o.report, "answer_p90_ms: refused, fewer than 10 answers above it")
	}

	if !e.cfg.traced {
		return nil
	}
	st := e.srv.Status()
	admitted := float64(st.Admitted - e.base.Admitted)
	L := o.layers
	L["recast.submit_ms_p50"] = median(all.submits)
	L["recast.repeat_answer_ms_p50"] = median(all.repeats)
	L["recast.dedup_frac"] = ratio(float64(st.DedupHits-e.base.DedupHits), admitted)
	L["recast.shed"] = float64(st.Shed - e.base.Shed)
	L["recast.polls_per_answer"] = ratio(float64(all.polls), n)

	// Queue wait runs from the submit call starting to the back end
	// starting, per traced request: the server may claim the request
	// before its 202 reaches the client, so it includes admission and the
	// journal writes.
	submitStart := map[uint64]time.Duration{}
	var backend []float64
	var busy time.Duration
	spans := e.tr.Spans()
	for _, s := range spans {
		if s.Name == "recast.submit" {
			submitStart[s.Trace] = s.Start
		}
	}
	var waits []float64
	for _, s := range spans {
		if s.Name != "recast.Backend.Process" {
			continue
		}
		backend = append(backend, ms(s.Dur()))
		busy += s.Dur()
		if t0, ok := submitStart[s.Trace]; ok {
			waits = append(waits, ms(s.Start-t0))
		}
	}
	L["recast.queue_wait_ms_p50"] = median(waits)
	L["recast.backend_ms_p50"] = median(backend)
	L["recast.backend_s"] = busy.Seconds()
	return nil
}

// answer submits one planned model, polls it to a terminal state and
// checks the answer. It returns the result, nil on failure.
func (e *reinterpretEnv) answer(o *outcome, st *requesterStats, requester string, trace uint64, p plannedModel, orig *recast.Result) *recast.Result {
	c := &recast.Client{BaseURL: e.hts.URL, HTTP: e.hc}
	ctx := context.Background()
	o.attempted++
	root := e.tr.Begin("recast.answer", trace, 0)
	t0 := time.Now()
	e.backend.expect(p.model, trace, root.ID())
	sub := e.tr.Begin("recast.submit", trace, root.ID())
	req, err := c.SubmitCtx(ctx, recastAnalysis, requester, "mass scan", p.model)
	sub.End()
	st.submits = append(st.submits, ms(time.Since(t0)))
	if err != nil {
		root.End()
		o.fail("submitting %+v: %v", p.model, err)
		return nil
	}
	for req.Status != recast.StatusDone && req.Status != recast.StatusFailed {
		time.Sleep(recastPoll)
		poll := e.tr.Begin("recast.poll", trace, root.ID())
		req, err = c.GetCtx(ctx, req.ID)
		poll.End()
		st.polls++
		if err != nil {
			root.End()
			o.fail("polling: %v", err)
			return nil
		}
	}
	lat := ms(time.Since(t0))
	root.End()
	if req.Status != recast.StatusDone || req.Result == nil {
		o.fail("%s finished %s: %s", req.ID, req.Status, req.Reason)
		return nil
	}
	st.answers = append(st.answers, lat)
	if p.repeatOf >= 0 {
		st.repeats = append(st.repeats, lat)
		if orig != nil && !sameAnswer(orig, req.Result) {
			o.fail("%s repeats an earlier model but answered %+v, not %+v", req.ID, *req.Result, *orig)
		}
	}
	return req.Result
}

// sameAnswer compares the physics of two results: limit, acceptance and
// cut flow.
func sameAnswer(a, b *recast.Result) bool {
	return a.UpperLimitEvents == b.UpperLimitEvents && a.UpperLimitXsecPb == b.UpperLimitXsecPb &&
		a.Acceptance == b.Acceptance && a.Generated == b.Generated && a.Selected == b.Selected &&
		slices.Equal(a.CutFlow, b.CutFlow)
}
