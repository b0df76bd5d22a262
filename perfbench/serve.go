package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
	"daspos/internal/queryserve"
	"daspos/internal/xrand"
)

// The serve workload is the public reading HepData: an open loop, because
// readers arrive independently of each other. One generator sends on a
// fixed schedule over at most two keep-alive connections and times each
// request from when it was due. The corpus is larger than the record
// cache; lookups are hot-skewed, a third of hot lookups revalidate, and
// publishes of new records run beside the reads. A ladder of higher
// offered rates follows and finds the highest rate the service sustains.
// Responses are checked after each phase, so that validation is neither
// in the phase's CPU time nor in the latency of requests queued behind.
const (
	serveRecords   = 20000
	serveDatasets  = 500
	serveHotKeys   = 16
	serveRate      = 700 // offered requests per second in the open loop
	serveConns     = 2
	serveOpenShare = 0.5 // share of the run at the nominal rate; the ladder gets the rest
	serveLimitMs   = 50  // read p99 limit a ladder rung must meet
	seqHeader      = "X-Bench-Seq"
)

// reqKind classifies a planned request.
type reqKind uint8

const (
	kindLookupHot reqKind = iota
	kindLookupCold
	kindRevalidate
	kindSearch
	kindScan
	kindExport
	kindPublish
	numKinds
)

var kindNames = [numKinds]string{"lookup_hot", "lookup_cold", "revalidate", "search", "scan", "export", "publish"}

// plannedReq is one request of the schedule. key is a corpus index for
// lookups, scans and exports; words is a search query.
type plannedReq struct {
	kind  reqKind
	key   int
	words string
	// visible asks the search to look for the latest published record.
	visible bool
}

var searchWords = []string{"boson", "dimuon", "dijet", "top", "quark", "atlas", "cms", "lhcb", "measurement", "production"}

// serveSchedule plans n requests from the seed: the request mix, keys
// and queries. Percentages are of all requests.
func serveSchedule(seed uint64, n int) []plannedReq {
	rng := xrand.New(mix(seed, 2000))
	hot := make([]int, serveHotKeys)
	for i := range hot {
		hot[i] = rng.Intn(serveRecords)
	}
	plan := make([]plannedReq, n)
	for i := range plan {
		u := rng.Intn(100)
		var p plannedReq
		switch {
		case u < 2:
			p.kind = kindPublish
		case u < 72: // lookups: 75% hot, a third of those revalidating
			if rng.Intn(4) < 3 {
				p.kind, p.key = kindLookupHot, hot[rng.Intn(len(hot))]
				if rng.Intn(3) == 0 {
					p.kind = kindRevalidate
				}
			} else {
				p.kind, p.key = kindLookupCold, rng.Intn(serveRecords)
			}
		case u < 86:
			p.kind = kindSearch
			if rng.Intn(2) == 0 {
				p.words = fmt.Sprintf("%d %s", rng.Intn(serveRecords), searchWords[rng.Intn(len(searchWords))])
			} else {
				p.words = searchWords[rng.Intn(len(searchWords))] + " " + searchWords[rng.Intn(len(searchWords))]
			}
			p.visible = rng.Intn(3) == 0
		case u < 94:
			p.kind, p.key = kindScan, rng.Intn(serveRecords)
		default:
			p.kind, p.key = kindExport, rng.Intn(serveRecords)
		}
		plan[i] = p
	}
	return plan
}

var (
	corpusReactions   = []string{"P P --> Z0 X", "P P --> W+ X", "P P --> ZPRIME X", "P P --> H0 X", "P P --> TOP TOPBAR X", "P P --> JET JET X"}
	corpusObservables = []string{"DSIG/DPT", "SIG", "DSIG/DM", "DSIG/DETA", "EFF"}
	corpusCollabs     = []string{"DASPOS-GPD", "ATLAS", "CMS", "LHCB"}
	corpusTopics      = []string{"boson", "dimuon", "dijet", "top-quark"}
	corpusTiers       = []string{"RAW", "RECO", "AOD", "SKIM"}
)

// corpusRecord is the i-th HepData record of the seed's corpus. Records
// from serveRecords on are the ones the workload publishes.
func corpusRecord(seed uint64, i int) *hepdata.Record {
	rng := xrand.New(mix(seed, uint64(3000000+i)))
	rec := &hepdata.Record{
		InspireID:     fmt.Sprintf("%07d", 1200000+i),
		Title:         fmt.Sprintf("Measurement %d of %s production at 8 TeV", i, corpusTopics[rng.Intn(len(corpusTopics))]),
		Collaboration: corpusCollabs[rng.Intn(len(corpusCollabs))],
		Year:          2008 + rng.Intn(12),
		Abstract:      "Differential cross sections measured with the preserved analysis chain.",
	}
	for t := 0; t < 1+rng.Intn(3); t++ {
		tab := hepdata.Table{
			Name: fmt.Sprintf("Table%d", t+1), XHeader: "PT [GEV]", YHeader: "DSIG/DPT [PB/GEV]",
			Reactions:   []string{corpusReactions[rng.Intn(len(corpusReactions))]},
			Observables: []string{corpusObservables[rng.Intn(len(corpusObservables))]},
		}
		for p := 0; p < 4+rng.Intn(12); p++ {
			lo := float64(p * 10)
			y := 100 / (1 + lo/25) * (0.9 + 0.2*rng.Float64())
			tab.Points = append(tab.Points, hepdata.Point{XLo: lo, X: lo + 5, XHi: lo + 10, Y: y,
				Errors: []hepdata.Uncertainty{{Label: "stat", Plus: y * 0.03, Minus: y * 0.03}, {Label: "sys", Plus: y * 0.05, Minus: y * 0.04}}})
		}
		rec.Tables = append(rec.Tables, tab)
	}
	return rec
}

func corpusDataset(i int) catalog.Dataset {
	tier := corpusTiers[i%len(corpusTiers)]
	return catalog.Dataset{
		Name: fmt.Sprintf("/mc8tev/sample%03d/%s/v%d", i, tier, 1+i%3), Tier: tier,
		ProcessingVersion: fmt.Sprintf("v%d", 1+i%3),
		Metadata:          map[string]string{"campaign": fmt.Sprintf("mc%d", 20+i%4), "generator": []string{"pythia8", "herwig", "sherpa"}[i%3]},
	}
}

// corpus is the serve workload's input: records and their expected ETags.
type corpus struct {
	records []*hepdata.Record
	etags   []string
}

func buildCorpus(seed uint64) (any, error) {
	c := &corpus{}
	for i := 0; i < serveRecords; i++ {
		rec := corpusRecord(seed, i)
		etag, err := queryserve.RecordETag(rec)
		if err != nil {
			return nil, err
		}
		c.records = append(c.records, rec)
		c.etags = append(c.etags, etag)
	}
	return c, nil
}

type serveEnv struct {
	cfg    config
	tr     *Tracer
	corpus *corpus
	qs     *queryserve.Server
	store  *tracedStore
	hts    *httptest.Server
	hc     *http.Client
	// traced[seq] links traced open-loop request seq to its handler.
	traced []reqTrace

	mu        sync.Mutex
	published []int // corpus indexes of published records, in order
	nextPub   atomic.Int64
}

// setupServe publishes the corpus into a fresh archive and catalog, starts
// the query tier and warms its cache.
func setupServe(cfg config, tr *Tracer, in any) (env, error) {
	c := in.(*corpus)
	archive := hepdata.NewArchive()
	for _, rec := range c.records {
		if err := archive.Submit(rec); err != nil {
			return nil, err
		}
	}
	cat := catalog.New()
	for i := 0; i < serveDatasets; i++ {
		if err := cat.Create(corpusDataset(i)); err != nil {
			return nil, err
		}
	}
	store := &tracedStore{inner: archive, tr: tr, trace: tr.NewTrace()}
	qs, err := queryserve.NewServer(queryserve.Config{Archive: archive, Catalog: cat, Store: store})
	if err != nil {
		return nil, err
	}
	e := &serveEnv{cfg: cfg, tr: tr, corpus: c, qs: qs, store: store,
		hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}, Timeout: 30 * time.Second}}
	if tr != nil {
		// Allocated before the server starts, so handlers only read it.
		e.traced = make([]reqTrace, openLoopRequests(cfg))
	}
	e.hts = httptest.NewServer(e.wrapHandler(qs.Handler()))
	e.nextPub.Store(serveRecords)
	// Warm-up: fill the cache with the hot keys and open both connections.
	var (
		o    outcome
		warm []sample
	)
	for _, p := range serveSchedule(cfg.seed, 256) {
		if p.kind != kindPublish {
			warm = append(warm, e.do(-1, p, time.Now()))
		}
	}
	e.verify(&o, warm)
	if o.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %s", o.failures[0])
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.hts.Close()
	e.hc.CloseIdleConnections()
}

// wrapHandler times the query tier's handler for traced requests, which
// carry their schedule index in seqHeader, and records each as a child of
// the request's span. The writer passes through untouched.
func (e *serveEnv) wrapHandler(h http.Handler) http.Handler {
	if e.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil || seq < 0 || seq >= len(e.traced) {
			h.ServeHTTP(w, r)
			return
		}
		rt := &e.traced[seq]
		sp := e.tr.Begin("queryserve.Handler", rt.trace.Load(), rt.root.Load())
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rt.handlerNs.Store(int64(time.Since(t0)))
		sp.End()
	})
}

// openLoopRequests is the length of the nominal-rate schedule.
func openLoopRequests(cfg config) int {
	return int(serveRate*cfg.seconds.Seconds()*serveOpenShare) + 1
}

// reqTrace is a traced request's span identity and handler time, written
// by the sender and the handler wrapper on different goroutines.
type reqTrace struct {
	trace, root atomic.Uint64
	handlerNs   atomic.Int64
}

// sample is one request as the sender saw it. verify checks it later and
// sets ok.
type sample struct {
	p        plannedReq
	seq      int
	fromDue  time.Duration // latency counted from the due time
	fromSend time.Duration // latency counted from the send
	status   int
	etag     string
	body     []byte // kept for the kinds check reads: lookups, publishes, visible searches
	token    string // the publish token a visible search looked for
	pubIdx   int    // corpus index of a publish
	err      string // why no response came back; "" when one did
	ok       bool
}

func (e *serveEnv) measure(o *outcome) error {
	plan := serveSchedule(e.cfg.seed, openLoopRequests(e.cfg))
	st0 := e.qs.Stats()
	reads0 := e.store.reads.Load()

	samples := make([]sample, len(plan))
	cpu0, start := cpuTime(), time.Now()
	lags, backlogs := openLoop(start, len(plan), time.Second/serveRate, serveConns, func(i int, due time.Time) {
		samples[i] = e.do(i, plan[i], due)
	})
	openWall := time.Since(start)
	o.cpu, o.ops = cpuTime()-cpu0, int64(len(plan))
	st, reads1, spans := e.qs.Stats(), e.store.reads.Load(), e.tr.Spans()
	e.verify(o, samples)

	rung := time.Duration(float64(e.cfg.seconds) * (1 - serveOpenShare) / float64(len(serveLadder)))
	sustained := e.ladder(o, rung)

	var reads, publishes []float64
	for _, s := range samples {
		switch {
		case !s.ok:
		case s.p.kind == kindPublish:
			publishes = append(publishes, ms(s.fromDue))
		default:
			reads = append(reads, ms(s.fromDue))
		}
	}
	o.e2e["latency_p50_ms"] = median(reads)
	o.e2e["read_p50_ms"] = median(reads)
	o.note("offered_rps", float64(len(plan))/openWall.Seconds(), "req/s")
	o.note("read_p50_ms", median(reads), "ms")
	if p99, ok := tail(reads, 99); ok {
		o.note("read_p99_ms", p99, "ms")
	} else {
		o.report = append(o.report, "read_p99_ms: refused, fewer than 10 reads above it")
	}
	o.note("publish_p50_ms", median(publishes), "ms")
	o.note("sustained_rps", sustained, "req/s")

	if e.tr == nil {
		return nil
	}
	// The layer figures describe the nominal-rate phase.
	L := o.layers
	byKind := make([][]float64, numKinds)
	var overhead []float64
	for _, s := range samples {
		h := time.Duration(e.traced[s.seq].handlerNs.Load())
		if !s.ok || h == 0 {
			continue
		}
		byKind[s.p.kind] = append(byKind[s.p.kind], us(h))
		overhead = append(overhead, us(s.fromSend-h))
	}
	for k := reqKind(0); k < numKinds; k++ {
		L["queryserve.handler_us_p50."+kindNames[k]] = median(byKind[k])
	}
	hits, misses := st.Cache.Hits-st0.Cache.Hits, st.Cache.Misses-st0.Cache.Misses
	L["queryserve.cache_hit_frac"] = ratio(float64(hits), float64(hits+misses))
	L["queryserve.not_modified_frac"] = ratio(float64(st.NotModified-st0.NotModified), float64(st.Lookups-st0.Lookups))
	L["queryserve.coalesced"] = float64(st.Cache.Coalesced - st0.Cache.Coalesced)
	L["queryserve.evictions"] = float64(st.Cache.Evictions - st0.Cache.Evictions)
	L["http.overhead_us_p50"] = median(overhead)
	L["hepdata.store_reads"] = float64(reads1 - reads0)
	var gets []float64
	for _, s := range spans {
		if s.Name == "hepdata.RecordStore.Get" {
			gets = append(gets, us(s.Dur()))
		}
	}
	L["hepdata.store_get_us_p50"] = median(gets)
	lag, ok := tail(lags, 99)
	if !ok {
		lag = sorted(lags)[len(lags)-1]
	}
	L["serve.gen_lag_ms_p99"] = lag
	L["serve.backlog_max"] = float64(slices.Max(backlogs))
	return nil
}

// serveLadder is the fixed ladder of offered rates sustained_rps is read
// from, in requests per second.
var serveLadder = []int{1000, 1400, 2000, 2800, 4000}

// ladder offers each rate of serveLadder for one rung and returns the
// highest rate, climbing from the bottom, at which every request was
// answered correctly, the read p99 met serveLimitMs and the backlog did
// not grow: the median queue length over the rung's second half stayed
// within one request per connection of the first half's. Medians ignore
// the short queues a single slow search builds. 0 means even the first
// rung failed. Every rung runs, also above the first that fails, so that
// each run does the same work whatever the service sustains.
func (e *serveEnv) ladder(o *outcome, rung time.Duration) float64 {
	sustained, climbing := 0, true
	for r, rate := range serveLadder {
		n := int(float64(rate) * rung.Seconds())
		plan := serveSchedule(mix(e.cfg.seed, uint64(10+r)), n)
		samples := make([]sample, n)
		_, backlogs := openLoop(time.Now(), n, time.Second/time.Duration(rate), serveConns, func(i int, due time.Time) {
			samples[i] = e.do(-1, plan[i], due)
		})
		e.verify(o, samples)
		var reads []float64
		misses := 0
		for _, s := range samples {
			switch {
			case !s.ok:
				misses++
			case s.p.kind != kindPublish:
				reads = append(reads, ms(s.fromDue))
			}
		}
		p99, ok := tail(reads, 99)
		growing := medianInt(backlogs[n/2:]) > medianInt(backlogs[:n/2])+serveConns
		o.report = append(o.report, fmt.Sprintf("ladder %5d req/s: read p99 %.2f ms (%d reads, p99 refused: %v), %d misses, backlog growing: %v",
			rate, p99, len(reads), !ok, misses, growing))
		if misses > 0 || !ok || p99 > serveLimitMs || growing {
			climbing = false
		}
		if climbing {
			sustained = rate
		}
	}
	return float64(sustained)
}

// openLoop releases request i at start + i*interval into a queue that
// conns senders drain, calling send(i, due) for each. Senders time
// requests from due, so a stall charges every request queued behind it.
// It returns each request's lateness in ms (how far behind its due time
// the generator released it) and the queue length each release found.
func openLoop(start time.Time, n int, interval time.Duration, conns int, send func(i int, due time.Time)) (lags []float64, backlogs []int) {
	queue := make(chan int, n) // sized to the schedule: releases never block
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(i, start.Add(time.Duration(i)*interval))
			}
		}()
	}
	lags, backlogs = make([]float64, n), make([]int, n)
	for i := range lags {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = ms(time.Since(due))
		backlogs[i] = len(queue)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lags, backlogs
}

// do sends one request and returns what came back, unchecked. seq is the
// schedule index, -1 outside the open loop; with tracing on, every
// open-loop request is traced. A publish the server accepts becomes, at
// once, the record later visible searches look for.
func (e *serveEnv) do(seq int, p plannedReq, due time.Time) sample {
	s := sample{p: p, seq: max(seq, 0)}
	var (
		method = http.MethodGet
		path   string
		body   []byte
	)
	switch p.kind {
	case kindLookupHot, kindLookupCold, kindRevalidate:
		path = "/records/" + e.corpus.records[p.key].ID()
	case kindSearch:
		q := p.words
		if p.visible {
			if idx, ok := e.latestPublished(); ok {
				s.token = pubToken(idx)
				q = s.token
			}
		}
		path = "/records?q=" + url.QueryEscape(q) + "&limit=20"
	case kindScan:
		path = "/records?limit=50&cursor=" + queryserve.Cursor{Key: e.corpus.records[p.key].ID()}.Encode()
	case kindExport:
		path = "/records/" + e.corpus.records[p.key].ID() + "/export?format=csv"
	case kindPublish:
		method = http.MethodPost
		s.pubIdx = int(e.nextPub.Add(1) - 1)
		var err error
		if body, err = hepdata.EncodeRecord(publishedRecord(e.cfg.seed, s.pubIdx)); err != nil {
			s.err = fmt.Sprintf("encoding publish %d: %v", s.pubIdx, err)
			return s
		}
		path = "/records"
	}
	req, err := http.NewRequest(method, e.hts.URL+path, bytes.NewReader(body))
	if err != nil {
		s.err = fmt.Sprintf("%s: %v", path, err)
		return s
	}
	if p.kind == kindRevalidate {
		req.Header.Set("If-None-Match", e.corpus.etags[p.key])
	}
	if e.tr != nil && seq >= 0 {
		root := e.tr.Begin("serve.request", e.tr.NewTrace(), 0)
		defer root.End()
		e.traced[seq].trace.Store(root.Trace())
		e.traced[seq].root.Store(root.ID())
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	sent := time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		s.err = fmt.Sprintf("%s %s: %v", method, path, err)
		return s
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	now := time.Now()
	s.fromDue, s.fromSend = now.Sub(due), now.Sub(sent)
	if err != nil {
		s.err = fmt.Sprintf("%s %s: reading body: %v", method, path, err)
		return s
	}
	s.status, s.etag = resp.StatusCode, resp.Header.Get("ETag")
	switch {
	case p.kind == kindLookupHot, p.kind == kindLookupCold, p.kind == kindPublish, s.token != "":
		s.body = data
	}
	if p.kind == kindPublish && s.status == http.StatusCreated {
		e.mu.Lock()
		e.published = append(e.published, s.pubIdx)
		e.mu.Unlock()
	}
	return s
}

// verify checks every sample, counting each as attempted and each wrong
// one as failed, and marks the right ones ok.
func (e *serveEnv) verify(o *outcome, samples []sample) {
	for i := range samples {
		s := &samples[i]
		o.attempted++
		msg := s.err
		if msg == "" {
			msg = e.check(s)
		}
		if msg != "" {
			o.fail("%s (key %d): %s", kindNames[s.p.kind], s.p.key, msg)
			continue
		}
		s.ok, s.body = true, nil
	}
}

// check validates one response; it returns what is wrong, "" when right.
func (e *serveEnv) check(s *sample) string {
	p := s.p
	switch p.kind {
	case kindRevalidate:
		if s.status != http.StatusNotModified {
			return fmt.Sprintf("status %d for a current validator, want 304", s.status)
		}
		if s.etag != e.corpus.etags[p.key] {
			return fmt.Sprintf("304 with ETag %s, want %s", s.etag, e.corpus.etags[p.key])
		}
	case kindLookupHot, kindLookupCold:
		if s.status != http.StatusOK {
			return fmt.Sprintf("status %d", s.status)
		}
		rec, err := hepdata.DecodeRecord(s.body)
		if err != nil {
			return "undecodable body: " + err.Error()
		}
		got, err := queryserve.RecordETag(rec)
		if err != nil || got != e.corpus.etags[p.key] || s.etag != got {
			return fmt.Sprintf("ETag %s and body digest %s, want %s", s.etag, got, e.corpus.etags[p.key])
		}
	case kindSearch:
		if s.status != http.StatusOK {
			return fmt.Sprintf("status %d", s.status)
		}
		if s.token == "" {
			break
		}
		var page struct {
			Results []struct{ Key string } `json:"results"`
		}
		if err := json.Unmarshal(s.body, &page); err != nil {
			return "undecodable search page: " + err.Error()
		}
		want := publishedRecord(e.cfg.seed, tokenIndex(s.token)).ID()
		for _, r := range page.Results {
			if r.Key == want {
				return ""
			}
		}
		return fmt.Sprintf("published record %s not found by a later search", want)
	case kindScan, kindExport:
		if s.status != http.StatusOK {
			return fmt.Sprintf("status %d", s.status)
		}
	case kindPublish:
		if s.status != http.StatusCreated {
			return fmt.Sprintf("status %d: %s", s.status, bytes.TrimSpace(s.body))
		}
		var ack struct{ Key, ETag string }
		if err := json.Unmarshal(s.body, &ack); err != nil {
			return "undecodable publish ack: " + err.Error()
		}
		rec := publishedRecord(e.cfg.seed, s.pubIdx)
		if want, _ := queryserve.RecordETag(rec); ack.Key != rec.ID() || ack.ETag != want {
			return fmt.Sprintf("ack %s %s, want %s %s", ack.Key, ack.ETag, rec.ID(), want)
		}
	}
	return ""
}

// latestPublished is the most recently acknowledged publish.
func (e *serveEnv) latestPublished() (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.published) == 0 {
		return 0, false
	}
	return e.published[len(e.published)-1], true
}

// publishedRecord is the record the workload publishes as its idx-th
// corpus entry; its title carries a token no other record has.
func publishedRecord(seed uint64, idx int) *hepdata.Record {
	rec := corpusRecord(seed, idx)
	rec.Title += " " + pubToken(idx)
	return rec
}

func pubToken(idx int) string { return "pub" + strconv.Itoa(idx) }

func tokenIndex(token string) int {
	n, _ := strconv.Atoi(token[len("pub"):])
	return n
}
