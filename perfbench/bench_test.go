package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"daspos/internal/cas"
	"daspos/internal/conditions"
	"daspos/internal/detector"
	"daspos/internal/hepdata"
	"daspos/internal/leshouches"
	"daspos/internal/queryserve"
	"daspos/internal/recast"
)

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(modelSchedule(7, 0, 64), modelSchedule(7, 0, 64)) {
		t.Error("model schedule differs between two calls with seed 7")
	}
	if reflect.DeepEqual(modelSchedule(7, 0, 64), modelSchedule(8, 0, 64)) {
		t.Error("model schedule ignores the seed")
	}
	if reflect.DeepEqual(modelSchedule(7, 0, 64), modelSchedule(7, 1, 64)) {
		t.Error("both requesters get the same schedule")
	}
	for k, p := range modelSchedule(7, 0, 64) {
		if repeat := k%recastRepeatEach == recastRepeatEach-1; repeat != (p.repeatOf >= 0) {
			t.Errorf("submission %d: repeatOf %d", k, p.repeatOf)
		}
	}
	if !reflect.DeepEqual(serveSchedule(7, 2000), serveSchedule(7, 2000)) {
		t.Error("read/publish schedule differs between two calls with seed 7")
	}
	if reflect.DeepEqual(serveSchedule(7, 2000), serveSchedule(8, 2000)) {
		t.Error("read/publish schedule ignores the seed")
	}
	for _, i := range []int{0, 1, 19999, 20000} {
		a, _ := queryserve.RecordETag(corpusRecord(7, i))
		b, _ := queryserve.RecordETag(corpusRecord(7, i))
		c, _ := queryserve.RecordETag(corpusRecord(8, i))
		if a != b || a == c {
			t.Errorf("corpus record %d: etags %s %s (seed 8: %s)", i, a, b, c)
		}
	}
}

func TestServeScheduleMix(t *testing.T) {
	counts := make([]int, numKinds)
	plan := serveSchedule(3, 100000)
	for _, p := range plan {
		counts[p.kind]++
	}
	share := func(k reqKind) float64 { return float64(counts[k]) / float64(len(plan)) }
	hot := share(kindLookupHot) + share(kindRevalidate)
	lookups := hot + share(kindLookupCold)
	if got := hot / lookups; got < 0.73 || got > 0.77 {
		t.Errorf("hot share of lookups %.3f, want 0.75", got)
	}
	if got := share(kindRevalidate) / hot; got < 0.31 || got > 0.36 {
		t.Errorf("revalidating share of hot lookups %.3f, want 1/3", got)
	}
	if got := share(kindPublish); got < 0.015 || got > 0.025 {
		t.Errorf("publish share %.3f, want 0.02", got)
	}
}

func TestTailRefusesFewSamplesAbove(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true},
		{99, 90, 90, false},
		{1000, 99, 990, true},
		{999, 99, 990, false},
		{5, 50, 3, false},
	}
	for _, c := range cases {
		got, ok := tail(xs(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tail(%d samples, p%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	ns := func(a, b int) (time.Duration, time.Duration) { return time.Duration(a), time.Duration(b) }
	span := func(name string, id, parent uint64, a, b int) Span {
		s, e := ns(a, b)
		return Span{Name: name, Trace: 1, ID: id, Parent: parent, Start: s, End: e}
	}
	spans := []Span{
		span("put", 1, 0, 0, 100),
		// Three overlapping replica writes cover [10, 60].
		span("node", 2, 1, 10, 40),
		span("node", 3, 1, 20, 50),
		span("node", 4, 1, 30, 60),
		// A child running past its parent counts only inside it.
		span("late", 5, 1, 90, 130),
		// A grandchild is charged to its own parent, not to put.
		span("disk", 6, 2, 15, 25),
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"put":  100 - 50 - 10,
		"node": (30 - 10) + 30 + 30,
		"late": 40,
		"disk": 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

func TestTracerInertWhenOff(t *testing.T) {
	var off *Tracer
	o := off.Begin("x", off.NewTrace(), 0)
	o.End()
	if off.Spans() != nil || o.ID() != 0 {
		t.Error("a nil tracer recorded a span")
	}
	on := NewTracer()
	on.Begin("untraced unit", 0, 0).End()
	root := on.Begin("root", on.NewTrace(), 0)
	on.Begin("child", root.Trace(), root.ID()).End()
	root.End()
	spans := on.Spans()
	if len(spans) != 2 || spans[0].Parent != root.ID() || spans[1].ID != root.ID() {
		t.Errorf("spans = %+v", spans)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const n, interval, service = 20, time.Millisecond, 5 * time.Millisecond
	// The generator starts 30ms late, and one connection takes 5ms per
	// request against a 1ms schedule, so the queue grows.
	start := time.Now().Add(-30 * time.Millisecond)
	fromDue := make([]time.Duration, n)
	lags, backlogs := openLoop(start, n, interval, 1, func(i int, due time.Time) {
		time.Sleep(service)
		fromDue[i] = time.Since(due)
	})
	if lags[0] < 30 {
		t.Errorf("first release %vms late, want at least 30ms", lags[0])
	}
	if slices.Max(backlogs) < 2 {
		t.Errorf("backlogs %v, want the queue to grow", backlogs)
	}
	// The last request waited behind 19 others: its latency from due is
	// far above its own 5ms service time.
	if last := fromDue[n-1]; last < 19*service-n*interval {
		t.Errorf("last request %v from due, want at least %v", last, 19*service-n*interval)
	}
}

func TestServeVerifiesAfterThePhase(t *testing.T) {
	rec := corpusRecord(3, 0)
	etag, err := queryserve.RecordETag(rec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := hepdata.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := hepdata.EncodeRecord(corpusRecord(3, 1))
	e := &serveEnv{corpus: &corpus{records: []*hepdata.Record{rec}, etags: []string{etag}}}
	samples := []sample{
		{p: plannedReq{kind: kindLookupHot}, status: http.StatusOK, etag: etag, body: body},
		{p: plannedReq{kind: kindLookupCold}, status: http.StatusOK, etag: etag, body: other},
		{p: plannedReq{kind: kindRevalidate}, status: http.StatusNotModified, etag: `"stale"`},
		{p: plannedReq{kind: kindScan}, err: "connection refused"},
	}
	var o outcome
	e.verify(&o, samples)
	if o.attempted != 4 || o.failed != 3 {
		t.Errorf("attempted %d, failed %d (%v); want 4 and 3", o.attempted, o.failed, o.failures)
	}
	if !samples[0].ok || samples[0].body != nil {
		t.Errorf("the right lookup: ok %v, body kept %v", samples[0].ok, samples[0].body != nil)
	}
	for i, s := range samples[1:] {
		if s.ok {
			t.Errorf("wrong sample %d marked ok", i+1)
		}
	}
}

func TestProduceDigestsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the production chain twice")
	}
	digests := make([]map[string]string, 2)
	for i, workers := range []int{1, 2} {
		cfg := config{seed: 5, tmp: t.TempDir()}
		e, err := newProduceEnv(cfg, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		p, err := e.produce(&o, 99, 60, 0)
		e.close()
		if err != nil {
			t.Fatal(err)
		}
		if o.failed > 0 || len(p.digests) != len(tierNames) {
			t.Fatalf("workers %d: %d failed (%v), %d tiers archived", workers, o.failed, o.failures, len(p.digests))
		}
		digests[i] = p.digests
	}
	if !reflect.DeepEqual(digests[0], digests[1]) {
		t.Errorf("tier digests differ:\n 1 worker:  %v\n 2 workers: %v", digests[0], digests[1])
	}
}

// bareBackend exposes only the cas.Backend methods of what it embeds.
type bareBackend struct{ cas.Backend }

func TestBackendWrapperForwardsCorrupter(t *testing.T) {
	var sc scope
	var n backendCounters
	if _, ok := wrapBackend(cas.NewMemBackend(), nil, &sc, &sc, &n).(cas.Corrupter); !ok {
		t.Error("wrapping a Corrupter hid CorruptBlob")
	}
	if _, ok := wrapBackend(bareBackend{cas.NewMemBackend()}, nil, &sc, &sc, &n).(cas.Corrupter); ok {
		t.Error("wrapping a plain backend invented CorruptBlob")
	}
	// The wrapped store keeps the fault-injection path working.
	inner := cas.NewMemBackend()
	store := cas.NewStoreWith(wrapBackend(inner, NewTracer(), &sc, &sc, &n))
	d, err := store.Put([]byte("preserved payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Corrupt(d); err != nil {
		t.Fatalf("Corrupt through the wrapper: %v", err)
	}
	if _, err := store.Get(d); err == nil {
		t.Error("corrupted blob read back clean")
	}
}

func TestNodeWrapperPassesWriterThrough(t *testing.T) {
	rec := httptest.NewRecorder()
	var seen http.ResponseWriter
	var sc scope
	var n nodeCounters
	h := wrapNode(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { seen = w }), NewTracer(), &sc, &n)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if seen != rec || n.requests.Load() != 1 {
		t.Errorf("handler saw %T, %d requests counted", seen, n.requests.Load())
	}
}

// plainBackend is a RECAST back end without a configuration digest.
type plainBackend struct{}

func (plainBackend) Name() string { return "plain" }
func (plainBackend) Process(context.Context, recast.ModelSpec, *leshouches.AnalysisRecord) (*recast.Result, error) {
	return &recast.Result{}, nil
}

func newFullSim(t *testing.T) *recast.FullSimBackend {
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, condTag, 1, 100, 10, condSeed); err != nil {
		t.Fatal(err)
	}
	return &recast.FullSimBackend{Det: detector.Standard(), CondDB: db, Tag: condTag, Run: condRun, LuminosityPb: 20000, Workers: 1}
}

func TestRecastWrapperForwardsConfigDigest(t *testing.T) {
	full := newFullSim(t)
	wrapped, _ := wrapRecast(full, NewTracer())
	d, ok := wrapped.(recast.ConfigDigester)
	if !ok {
		t.Fatal("wrapping FullSimBackend hid ConfigDigest")
	}
	if d.ConfigDigest() != full.ConfigDigest() {
		t.Errorf("digest %q, want %q", d.ConfigDigest(), full.ConfigDigest())
	}
	if _, ok := mustWrap(plainBackend{}).(recast.ConfigDigester); ok {
		t.Error("wrapping a back end without a digest invented one")
	}
}

func mustWrap(b recast.Backend) recast.Backend {
	w, _ := wrapRecast(b, nil)
	return w
}

// dedupTrace submits models one at a time through a fresh server and
// returns each request's DedupOf and the server's dedup hit count.
func dedupTrace(t *testing.T, backend recast.Backend, models []recast.ModelSpec) ([]string, uint64) {
	t.Helper()
	svc := recast.NewService(backend)
	if err := svc.Subscribe(recast.Subscription{Name: recastAnalysis, Description: "test", Record: highMassSearch()}); err != nil {
		t.Fatal(err)
	}
	srv, err := recast.NewServer(context.Background(), svc, recast.ServerConfig{JournalDir: t.TempDir(), Workers: 1, AutoApprove: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	c := &recast.Client{BaseURL: hts.URL}
	var dedupOf []string
	for _, m := range models {
		req, err := c.Submit(recastAnalysis, "tester", "", m)
		if err != nil {
			t.Fatal(err)
		}
		for req.Status != recast.StatusDone && req.Status != recast.StatusFailed {
			time.Sleep(time.Millisecond)
			if req, err = c.Get(req.ID); err != nil {
				t.Fatal(err)
			}
		}
		if req.Status != recast.StatusDone {
			t.Fatalf("%s: %s %s", req.ID, req.Status, req.Reason)
		}
		dedupOf = append(dedupOf, req.DedupOf)
	}
	return dedupOf, srv.Status().DedupHits
}

func TestDedupHitsSameWithAndWithoutWrapper(t *testing.T) {
	a := recast.ModelSpec{Process: "zprime", MassGeV: 800, Events: 20, Seed: 1}
	b := a
	b.MassGeV = 1200
	models := []recast.ModelSpec{a, b, a, b, a}
	direct, directHits := dedupTrace(t, newFullSim(t), models)
	wrapped, _ := wrapRecast(newFullSim(t), NewTracer())
	viaWrapper, wrappedHits := dedupTrace(t, wrapped, models)
	if directHits != 3 || wrappedHits != directHits || !reflect.DeepEqual(direct, viaWrapper) {
		t.Errorf("dedup: direct %v (%d hits), wrapped %v (%d hits)", direct, directHits, viaWrapper, wrappedHits)
	}
	// The dedup key, which the journals persist, is the same too.
	digest := wrapped.(recast.ConfigDigester).ConfigDigest()
	if recast.DedupKey(recastAnalysis, a, digest) != recast.DedupKey(recastAnalysis, a, newFullSim(t).ConfigDigest()) {
		t.Error("the wrapper changes the dedup key")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: code %s %s, BENCHMARK.json %s %s", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
