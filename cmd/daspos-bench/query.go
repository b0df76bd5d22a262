package main

// The read-path section: the query server's cached conditional-GET serving
// and indexed search under a mixed read workload — hot-key lookups over a
// small working set, cold searches, paginated scans, and export streams —
// at several client goroutine counts. Results go to BENCH_query.json:
// per-class latency percentiles, the warm cached-lookup p50 measured at
// GOMAXPROCS=1, allocations per cached query, and the indexed-vs-linear
// search scaling pair the sublinearity gate reads.

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"daspos/internal/catalog"
	"daspos/internal/faults"
	"daspos/internal/hepdata"
	"daspos/internal/queryserve"
)

// queryClassStats is one workload class's latency row.
type queryClassStats struct {
	Requests int     `json:"requests"`
	P50Us    float64 `json:"p50_us"`
	P95Us    float64 `json:"p95_us"`
	P99Us    float64 `json:"p99_us"`
}

// queryMixSection is the mixed workload at one client concurrency.
type queryMixSection struct {
	Goroutines int                        `json:"goroutines"`
	Requests   int                        `json:"requests"`
	DurationMs float64                    `json:"duration_ms"`
	Classes    map[string]queryClassStats `json:"classes"`
}

// querySearchPoint is one corpus size in the scaling pair.
type querySearchPoint struct {
	Records        int     `json:"records"`
	IndexedNsPerOp float64 `json:"indexed_ns_per_op"`
	LinearNsPerOp  float64 `json:"linear_ns_per_op"`
}

// queryReport is the BENCH_query.json document.
type queryReport struct {
	GoVersion          string             `json:"go_version"`
	GOMAXPROCS         int                `json:"gomaxprocs"`
	Records            int                `json:"records"`
	Datasets           int                `json:"datasets"`
	Short              bool               `json:"short"`
	Unix               int64              `json:"generated_unix"`
	CachedLookupP50Us  float64            `json:"cached_lookup_p50_us"`
	CachedLookupP99Us  float64            `json:"cached_lookup_p99_us"`
	CachedLookupAllocs int64              `json:"cached_lookup_allocs_per_op"`
	Mix                []queryMixSection  `json:"mix"`
	SearchScale        []querySearchPoint `json:"search_scale"`
	CacheHits          uint64             `json:"cache_hits"`
	CacheMisses        uint64             `json:"cache_misses"`
	Coalesced          uint64             `json:"coalesced"`
	NotModified        uint64             `json:"not_modified"`
}

// benchQueryRecord builds the i-th record of the bench corpus: fixed shape
// (two tables, eight points each) so per-record serving cost is uniform
// and the latency spread comes from the cache and index, not the corpus.
func benchQueryRecord(i int) *hepdata.Record {
	reactions := []string{"P P --> Z0 X", "P P --> W+ X", "P P --> ZPRIME X",
		"P P --> H0 X", "P P --> TOP TOPBAR X", "P P --> JET JET X"}
	collabs := []string{"DASPOS-GPD", "ATLAS", "CMS", "LHCB"}
	title := fmt.Sprintf("Measurement %d of %s production", i, []string{"boson", "dimuon", "dijet", "top"}[i%4])
	if i < 10 {
		// A fixed-size golden subset regardless of corpus size: the
		// sublinearity gate queries for it, so indexed search cost stays
		// proportional to matches while the linear scan grows with n.
		title += " golden calibration sample"
	}
	rec := &hepdata.Record{
		InspireID:     fmt.Sprintf("%07d", 1500000+i),
		Title:         title,
		Collaboration: collabs[i%len(collabs)],
		Year:          2008 + i%12,
		Abstract:      "Differential cross sections from the preserved chain.",
	}
	for t := 0; t < 2; t++ {
		tab := hepdata.Table{
			Name:        fmt.Sprintf("Table%d", t+1),
			XHeader:     "PT [GEV]",
			YHeader:     "DSIG/DPT [PB/GEV]",
			Reactions:   []string{reactions[(i+t)%len(reactions)]},
			Observables: []string{"DSIG/DPT"},
		}
		for p := 0; p < 8; p++ {
			lo := float64(p * 10)
			y := 100 / (1 + lo/25)
			tab.Points = append(tab.Points, hepdata.Point{
				XLo: lo, X: lo + 5, XHi: lo + 10, Y: y,
				Errors: []hepdata.Uncertainty{{Label: "stat", Plus: y * 0.03, Minus: y * 0.03}},
			})
		}
		rec.Tables = append(rec.Tables, tab)
	}
	return rec
}

func newQueryBenchServer(records, datasets int) (*queryserve.Server, error) {
	archive := hepdata.NewArchive()
	cat := catalog.New()
	srv, err := queryserve.NewServer(queryserve.Config{Archive: archive, Catalog: cat})
	if err != nil {
		return nil, err
	}
	for i := 0; i < records; i++ {
		if _, err := srv.PublishRecord(benchQueryRecord(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < datasets; i++ {
		tiers := []string{"RAW", "RECO", "AOD", "SKIM"}
		d := &catalog.Dataset{
			Name:              fmt.Sprintf("/bench/sample%03d/%s/v%d", i, tiers[i%4], 1+i%3),
			Tier:              tiers[i%4],
			ProcessingVersion: fmt.Sprintf("v%d", 1+i%3),
			Metadata:          map[string]string{"campaign": fmt.Sprintf("mc%d", 20+i%4)},
		}
		if _, err := srv.PublishDataset(d); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// serveOnce runs one request through the handler in process and reports
// its latency. The recorder is per-call: the cost is in the budget, the
// same as any real response writer.
func serveOnce(h http.Handler, method, target, validator string) (time.Duration, int) {
	req := httptest.NewRequest(method, target, nil)
	if validator != "" {
		req.Header.Set("If-None-Match", validator)
	}
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	return time.Since(t0), w.Code
}

// runQueryBench drives the read-path section, writes its report and
// returns it for the gate.
func runQueryBench(out string, short bool, stamp int64) (queryReport, error) {
	records, datasets, perClass := 2000, 200, 1500
	goroutines := []int{1, 4, 8, 16}
	scaleSizes := []int{500, 2000}
	if short {
		records, datasets, perClass = 400, 60, 300
		goroutines = []int{1, 4}
		scaleSizes = []int{200, 800}
	}
	srv, err := newQueryBenchServer(records, datasets)
	if err != nil {
		return queryReport{}, err
	}
	h := srv.Handler()
	log.Printf("query section: %d records, %d datasets, %d index terms",
		records, datasets, srv.Stats().IndexTerms)

	// The working set: 16 hot keys, everything else cold.
	var hot, cold []string
	for i := 0; i < records; i++ {
		id := benchQueryRecord(i).ID()
		if i < 16 {
			hot = append(hot, id)
		} else {
			cold = append(cold, id)
		}
	}
	searches := []string{
		"reaction:PP-->ZPRIMEX",
		"reaction:PP-->Z0X+obs:DSIG%2FDPT",
		"boson+measurement&mode=or",
		"collab:ATLAS+dimuon",
		"tier:AOD",
	}

	rep := queryReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Records:    records,
		Datasets:   datasets,
		Short:      short,
		Unix:       stamp,
	}

	// Warm cached-lookup latency, single client, GOMAXPROCS=1 — the
	// sub-millisecond headline number. The key is served once to fill the
	// cache, then every timed request is a warm hit.
	serveOnce(h, "GET", "/records/"+hot[0], "")
	oldProcs := runtime.GOMAXPROCS(1)
	var warm []float64
	for i := 0; i < perClass; i++ {
		d, code := serveOnce(h, "GET", "/records/"+hot[i%len(hot)], "")
		if code != 200 {
			runtime.GOMAXPROCS(oldProcs)
			return queryReport{}, fmt.Errorf("query bench: warm lookup status %d", code)
		}
		warm = append(warm, float64(d.Nanoseconds())/1000)
	}
	runtime.GOMAXPROCS(oldProcs)
	rep.CachedLookupP50Us = percentile(warm, 50)
	rep.CachedLookupP99Us = percentile(warm, 99)

	// Allocations per cached query, from the standard harness.
	allocRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("GET", "/records/"+hot[i%len(hot)], nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
	rep.CachedLookupAllocs = allocRes.AllocsPerOp()

	// The mixed workload at each client concurrency: 60% hot lookups
	// (with warm validators, so revalidation and 304s are in the mix),
	// 20% cold lookups, plus searches, scan pages, and export streams.
	for _, g := range goroutines {
		sec, err := runQueryMix(srv, h, g, perClass, hot, cold, searches)
		if err != nil {
			return queryReport{}, err
		}
		rep.Mix = append(rep.Mix, sec)
	}

	// The scaling pair: indexed search against the pinned linear-scan
	// baseline (hepdata.Archive.Search) at two corpus sizes.
	for _, n := range scaleSizes {
		pt, err := querySearchScalePoint(n)
		if err != nil {
			return queryReport{}, err
		}
		rep.SearchScale = append(rep.SearchScale, pt)
	}

	st := srv.Stats()
	rep.CacheHits, rep.CacheMisses = st.Cache.Hits, st.Cache.Misses
	rep.Coalesced, rep.NotModified = st.Cache.Coalesced, st.NotModified

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return queryReport{}, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return queryReport{}, err
	}
	log.Printf("cached lookup: p50 %.1fus p99 %.1fus (%d allocs/op) at GOMAXPROCS=1",
		rep.CachedLookupP50Us, rep.CachedLookupP99Us, rep.CachedLookupAllocs)
	for _, sec := range rep.Mix {
		hotSt := sec.Classes["hot_lookup"]
		searchSt := sec.Classes["cold_search"]
		log.Printf("mix goroutines=%-2d  %5d reqs in %7.1fms  hot p50 %6.1fus  search p50 %6.1fus",
			sec.Goroutines, sec.Requests, sec.DurationMs, hotSt.P50Us, searchSt.P50Us)
	}
	for _, pt := range rep.SearchScale {
		log.Printf("search scale records=%-5d indexed %8.0f ns/op  linear %9.0f ns/op",
			pt.Records, pt.IndexedNsPerOp, pt.LinearNsPerOp)
	}
	log.Printf("cache: %d hits, %d misses, %d coalesced, %d revalidated 304",
		rep.CacheHits, rep.CacheMisses, rep.Coalesced, rep.NotModified)
	log.Printf("wrote %s", out)
	return rep, nil
}

// runQueryMix replays the mixed read schedule with g client goroutines.
func runQueryMix(srv *queryserve.Server, h http.Handler, g, perClass int, hot, cold, searches []string) (queryMixSection, error) {
	type op struct {
		class     string
		target    string
		validator string
	}
	keys := faults.ReadSchedule(uint64(31+g), faults.ReadShape{
		HotKeys: hot, ColdKeys: cold, HotFraction: 0.75,
	}, perClass*2)
	hotSet := make(map[string]bool, len(hot))
	for _, k := range hot {
		hotSet[k] = true
	}
	// Warm the hot validators so revalidating lookups are in the mix.
	validators := map[string]string{}
	for _, k := range hot {
		req := httptest.NewRequest("GET", "/records/"+k, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		validators[k] = w.Header().Get("ETag")
	}
	var ops []op
	for i, k := range keys {
		class := "cold_lookup"
		validator := ""
		if hotSet[k] {
			class = "hot_lookup"
			if i%3 == 0 {
				validator = validators[k]
			}
		}
		ops = append(ops, op{class, "/records/" + k, validator})
		switch i % 10 {
		case 3:
			ops = append(ops, op{"cold_search", "/records?q=" + searches[i%len(searches)], ""})
		case 5:
			ops = append(ops, op{"scan_page", fmt.Sprintf("/records?limit=50&cursor=%s",
				queryserve.Cursor{Key: k}.Encode()), ""})
		case 7:
			ops = append(ops, op{"export_stream", "/records/" + k + "/export?format=csv", ""})
		}
	}

	type sample struct {
		class string
		us    float64
	}
	samples := make([][]sample, g)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += g {
				o := ops[i]
				d, code := serveOnce(h, "GET", o.target, o.validator)
				if code >= 400 {
					log.Printf("query bench: %s -> %d", o.target, code)
					continue
				}
				samples[w] = append(samples[w], sample{o.class, float64(d.Nanoseconds()) / 1000})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	byClass := map[string][]float64{}
	for _, part := range samples {
		for _, s := range part {
			byClass[s.class] = append(byClass[s.class], s.us)
		}
	}
	sec := queryMixSection{
		Goroutines: g,
		Requests:   len(ops),
		DurationMs: float64(elapsed.Microseconds()) / 1000,
		Classes:    map[string]queryClassStats{},
	}
	for class, lats := range byClass {
		sec.Classes[class] = queryClassStats{
			Requests: len(lats),
			P50Us:    percentile(lats, 50),
			P95Us:    percentile(lats, 95),
			P99Us:    percentile(lats, 99),
		}
	}
	return sec, nil
}

// querySearchScalePoint measures indexed search and the linear-scan
// baseline over a fresh corpus of n records.
func querySearchScalePoint(n int) (querySearchPoint, error) {
	archive := hepdata.NewArchive()
	idx := queryserve.NewIndex()
	for i := 0; i < n; i++ {
		r := benchQueryRecord(i)
		if err := archive.Submit(r); err != nil {
			return querySearchPoint{}, err
		}
		etag, err := queryserve.RecordETag(r)
		if err != nil {
			return querySearchPoint{}, err
		}
		if err := idx.AddRecord(r, etag); err != nil {
			return querySearchPoint{}, err
		}
	}
	// A fixed-selectivity probe: "golden calibration" matches exactly the
	// ten golden records at every corpus size, so the indexed cost is
	// bounded by matches while the scan is bounded by the corpus.
	terms := queryserve.ParseQuery("golden calibration")
	want := idx.Search(terms, queryserve.And, -1)
	if len(want) != 10 {
		return querySearchPoint{}, fmt.Errorf("query bench: scale query matched %d at n=%d, want 10", len(want), n)
	}
	indexed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if hits := idx.Search(terms, queryserve.And, -1); len(hits) != len(want) {
				b.Fatalf("indexed search drifted: %d hits", len(hits))
			}
		}
	})
	linear := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if hits := archive.Search("golden"); len(hits) != 10 {
				b.Fatalf("linear search matched %d", len(hits))
			}
		}
	})
	return querySearchPoint{
		Records:        n,
		IndexedNsPerOp: float64(indexed.T.Nanoseconds()) / float64(indexed.N),
		LinearNsPerOp:  float64(linear.T.Nanoseconds()) / float64(linear.N),
	}, nil
}

// checkQueryGates enforces the read-path acceptance thresholds.
func checkQueryGates(rep queryReport) error {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	// Gate 1: the headline — a warm cached lookup answers under a
	// millisecond at GOMAXPROCS=1.
	if rep.CachedLookupP50Us >= 1000 {
		fail("cached lookup p50 %.1fus, budget 1000us (1ms)", rep.CachedLookupP50Us)
	}

	// Gate 2: the cached path stays allocation-light. The budget covers
	// the recorder, the request parse, and response framing — what it
	// forbids is per-request re-encoding of the record body.
	const allocBudget = 150
	if rep.CachedLookupAllocs > allocBudget {
		fail("cached lookup %d allocs/op, budget %d", rep.CachedLookupAllocs, allocBudget)
	}

	// Gate 3: indexed search is sublinear against the pinned linear scan.
	// Growing the corpus 4x must grow indexed search time far less than
	// linearly, and the index must beat the scan outright at the large
	// size.
	if len(rep.SearchScale) >= 2 {
		small, big := rep.SearchScale[0], rep.SearchScale[len(rep.SearchScale)-1]
		grow := float64(big.Records) / float64(small.Records)
		idxRatio := big.IndexedNsPerOp / small.IndexedNsPerOp
		linRatio := big.LinearNsPerOp / small.LinearNsPerOp
		if idxRatio >= grow/1.5 {
			fail("indexed search grew %.2fx over a %.0fx corpus (linear baseline grew %.2fx) — not sublinear",
				idxRatio, grow, linRatio)
		}
		if big.IndexedNsPerOp >= big.LinearNsPerOp {
			fail("indexed search (%0.f ns/op) does not beat the linear scan (%.0f ns/op) at %d records",
				big.IndexedNsPerOp, big.LinearNsPerOp, big.Records)
		}
	} else {
		fail("search scaling pair missing from the report")
	}

	if len(errs) > 0 {
		return fmt.Errorf("  %s", strings.Join(errs, "\n  "))
	}
	return nil
}
