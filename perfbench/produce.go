package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"daspos/internal/cas"
	"daspos/internal/checkpoint"
	"daspos/internal/cluster"
	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/eventflow"
	"daspos/internal/generator"
	"daspos/internal/hepdata"
	"daspos/internal/node"
	"daspos/internal/provenance"
	"daspos/internal/queryserve"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/sim"
	"daspos/internal/skim"
	"daspos/internal/trigger"
	"daspos/internal/workflow"
)

// The produce workload is the experiment's production and preservation
// job: Drell-Yan events at pileup 20 go through the online chain and the
// offline workflow, every tier is archived to a five-node cluster and read
// back, and a run summary is published to HepData.
const (
	produceEvents  = 1000 // events per production
	producePileup  = 20
	produceWorkers = 2
	produceBatch   = 32
	warmupEvents   = 100
	clusterNodes   = 5
	clusterRF      = 3
	condTag        = "prod-v1"
	condRun        = 1
	// condSeed pins the calibration: it is the detector's state, not a
	// workload input, so it does not follow the workload seed.
	condSeed = 1
)

// tierNames are the artifacts one production archives, in order.
var tierNames = []string{"raw.banks", "reco.edm", "aod.edm", "skim.DIMUON", "skim.MET"}

type produceEnv struct {
	cfg     config
	tr      *Tracer
	workers int // per parallel stage

	det *detector.Detector
	db  *conditions.DB

	servers []*httptest.Server
	cancel  context.CancelFunc
	store   *cas.Store
	qs      *queryserve.Server

	// run is the production-run scope; casScope holds the cas.Store call
	// in flight and clusterScope the cluster client call beneath it.
	run, casScope, clusterScope scope
	backend                     backendCounters
	nodes                       nodeCounters
	published                   int
}

// setupProduce starts the storage fleet and the HepData tier and runs a
// warm-up production.
func setupProduce(cfg config, tr *Tracer, _ any) (env, error) {
	e, err := newProduceEnv(cfg, tr, produceWorkers)
	if err != nil {
		return nil, err
	}
	// Warm-up: one small production through every layer, so lazily built
	// state (connections, pools, conditions caches) is ready before timing.
	var o outcome
	if _, err := e.produce(&o, mix(cfg.seed, 1<<40), warmupEvents, 0); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if o.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %s", o.failures[0])
	}
	e.backend, e.nodes = backendCounters{}, nodeCounters{}
	return e, nil
}

func newProduceEnv(cfg config, tr *Tracer, workers int) (*produceEnv, error) {
	e := &produceEnv{cfg: cfg, tr: tr, workers: workers, det: detector.Standard(), db: conditions.NewDB()}
	if err := conditions.SeedStandard(e.db, condTag, 1, 100, 10, condSeed); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	var infos []cluster.NodeInfo
	for i := 0; i < clusterNodes; i++ {
		nd := node.New(fmt.Sprintf("node-%d", i), cas.NewShardedBackend(0))
		srv := httptest.NewServer(wrapNode(nd.Handler(), tr, &e.clusterScope, &e.nodes))
		e.servers = append(e.servers, srv)
		infos = append(infos, cluster.NodeInfo{ID: nd.ID(), URL: srv.URL})
	}
	cl, err := cluster.New(ctx, cluster.Config{Nodes: infos, ReplicationFactor: clusterRF})
	if err != nil {
		e.close()
		return nil, err
	}
	e.store = cas.NewStoreWith(wrapBackend(cl, tr, &e.casScope, &e.clusterScope, &e.backend))
	e.qs, err = queryserve.NewServer(queryserve.Config{Archive: hepdata.NewArchive()})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *produceEnv) close() {
	for _, s := range e.servers {
		s.Close()
	}
	if e.cancel != nil {
		e.cancel()
	}
}

// production is one production's measurements.
type production struct {
	wall, archive, execute, stepWalls time.Duration
	generated, accepted               int
	tierBytes                         map[string]int64
	digests                           map[string]string // tier → archived digest
	reports                           []eventflow.Report
	hits, tracks                      int64
	skimKept, skimOffered             int
	mallocs                           uint64
}

func (e *produceEnv) measure(o *outcome) error {
	var (
		all   []production
		walls []float64
	)
	deadline := time.Now().Add(e.cfg.seconds)
	for k := 0; time.Now().Before(deadline); k++ {
		p, err := e.produce(o, mix(e.cfg.seed, uint64(k)), produceEvents, e.tr.NewTrace())
		if err != nil {
			return err
		}
		all = append(all, p)
		walls = append(walls, ms(p.wall))
	}

	var events, wall, archive, logical float64
	for _, p := range all {
		events += float64(p.generated)
		wall += p.wall.Seconds()
		archive += p.archive.Seconds()
		for _, b := range p.tierBytes {
			logical += float64(b)
		}
	}
	o.ops = int64(events)
	o.e2e["latency_p50_ms"] = median(walls)
	o.e2e["events_per_s"] = events / wall
	o.note("productions", float64(len(all)), "count")
	o.note("events_per_s", events/wall, "events/s")
	o.note("archive_mb_per_s", logical/1e6/archive, "MB/s")
	o.note("production_wall_p50_ms", median(walls), "ms")
	if e.cfg.traced {
		e.layers(o, all)
	}
	return nil
}

// produce runs one production of n events and checks its outputs.
func (e *produceEnv) produce(o *outcome, seed uint64, n int, trace uint64) (production, error) {
	p := production{tierBytes: map[string]int64{}, digests: map[string]string{}}
	root := e.tr.Begin("produce.production", trace, 0)
	restore := e.run.enter(root)
	t0 := time.Now()

	raw, accepted, online, err := e.online(seed, n)
	if err != nil {
		return p, err
	}
	p.generated, p.accepted = n, accepted
	p.reports = append(p.reports, online.rep)
	p.hits = online.hits

	ledgerDir := filepath.Join(e.cfg.tmp, fmt.Sprintf("ledger-%d", seed))
	defer os.RemoveAll(ledgerDir)
	ledger, err := checkpoint.Open(ledgerDir)
	if err != nil {
		return p, err
	}
	defer ledger.Close()
	prov := provenance.NewStore()
	wf, reports, tracks := e.offline()
	inputs := map[string]*workflow.Artifact{
		"raw.banks": {Name: "raw.banks", Tier: "RAW", Events: accepted, Data: raw},
	}
	ex := e.tr.Begin("workflow.Execute", trace, root.ID())
	undo := e.run.enter(ex)
	te := time.Now()
	res, err := wf.Execute(context.Background(), inputs, prov, workflow.WithCheckpoint(ledger))
	p.execute = time.Since(te)
	undo()
	ex.End()
	if err != nil {
		return p, fmt.Errorf("workflow: %w", err)
	}
	for _, r := range reports.list {
		p.reports = append(p.reports, r)
		p.stepWalls += r.Wall
	}
	p.tracks = tracks.Load()
	o.attempted++
	if a := prov.Audit(); a.CompleteFraction() != 1 {
		o.fail("production %d: provenance %d of %d records complete", seed, a.Complete, a.Records)
	}

	tiers := map[string][]byte{"raw.banks": raw}
	events := map[string]int{}
	for _, name := range tierNames[1:] {
		a, ok := res.Artifacts[name]
		if !ok {
			o.fail("production %d: workflow produced no %s", seed, name)
			continue
		}
		tiers[name], events[name] = a.Data, a.Events
	}
	p.skimOffered = len(train.Derivations) * events["aod.edm"]
	p.skimKept = events["skim.DIMUON"] + events["skim.MET"]

	var ms0 runtime.MemStats
	if trace != 0 {
		runtime.ReadMemStats(&ms0)
	}
	ta := time.Now()
	p.digests = e.archive(o, seed, tiers, root)
	p.archive = time.Since(ta)
	if trace != 0 {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	for name, data := range tiers {
		p.tierBytes[name] = int64(len(data))
	}

	pub := e.tr.Begin("queryserve.PublishRecord", trace, root.ID())
	rec := summaryRecord(seed, e.published, accepted, p.tierBytes)
	etag, err := e.qs.PublishRecord(rec)
	pub.End()
	e.published++
	o.attempted++
	if err != nil {
		o.fail("production %d: publishing summary: %v", seed, err)
	} else if want, _ := queryserve.RecordETag(rec); etag != want {
		o.fail("production %d: summary etag %s, want %s", seed, etag, want)
	}
	p.wall = time.Since(t0)
	restore()
	root.End()

	// Cleanup is outside the timed production: drop the tiers so the
	// fleet's memory stays flat across productions.
	for _, d := range p.digests {
		e.store.Delete(d)
	}
	return p, nil
}

// onlineResult is the online pipeline's report and hit count.
type onlineResult struct {
	rep  eventflow.Report
	hits int64
}

// online runs generate → simulate → trigger → digitize → event-build.
func (e *produceEnv) online(seed uint64, n int) ([]byte, int, onlineResult, error) {
	var res onlineResult
	gcfg := generator.DefaultConfig(seed)
	gcfg.PileupMu = producePileup
	gen, err := generator.New(generator.ProcDrellYanZ, gcfg)
	if err != nil {
		return nil, 0, res, err
	}
	full := sim.NewFullSim(e.det, seed)
	trg := trigger.New(trigger.StandardMenu(), e.det)
	var buf bytes.Buffer
	builder := rawdata.NewWriter(&buf)

	trace, parent := e.run.parent()
	ps := e.tr.Begin("eventflow.online", trace, parent)
	st := stageTracer{tr: e.tr, trace: ps.Trace(), parent: ps.ID()}
	simFn := full.StageFunc()
	var hits atomic.Int64
	if ps.Trace() != 0 {
		simFn = counted(&hits, func(se *sim.Event) int { return len(se.TrackerHits) + len(se.MuonHits) }, simFn)
	}
	online := eventflow.New(context.Background(), "online", eventflow.Options{BatchSize: produceBatch})
	hepmcS := eventflow.Source(online, "generate", source(st, "generator.generate", generator.EventSource(gen, n)))
	simS := eventflow.Map(hepmcS, "simulate", e.workers, mapFn(st, "sim.simulate", simFn))
	trigS := eventflow.Map(simS, "trigger", 1, mapFn(st, "trigger.evaluate", func(se *sim.Event) (*sim.Event, bool, error) {
		return se, trg.Evaluate(se).Accepted, nil
	}))
	rawS := eventflow.Map(trigS, "digitize", e.workers, mapFn(st, "rawdata.digitize", rawdata.DigitizeFunc(condRun)))
	eventflow.Sink(rawS, "event-build", sink(st, "rawdata.build", builder.Write))
	err = online.Wait()
	ps.End()
	if err != nil {
		return nil, 0, res, fmt.Errorf("online chain: %w", err)
	}
	res.rep = online.Report()
	res.hits = hits.Load()
	return buf.Bytes(), builder.Count(), res, nil
}

// stepReports collects the offline pipelines' reports.
type stepReports struct{ list []eventflow.Report }

// offline builds the reconstruct → aod-slim → derivation-train workflow,
// the chain daspos-pipeline runs.
func (e *produceEnv) offline() (*workflow.Workflow, *stepReports, *atomic.Int64) {
	reps := &stepReports{}
	tracks := new(atomic.Int64)
	snap := e.db.Snapshot(condTag, condRun)
	opts := eventflow.Options{BatchSize: produceBatch}

	// step opens the step's span under workflow.Execute and returns the
	// stage tracer for its pipeline.
	step := func(name string) (stageTracer, func()) {
		trace, parent := e.run.parent()
		o := e.tr.Begin("workflow.step."+name, trace, parent)
		return stageTracer{tr: e.tr, trace: o.Trace(), parent: o.ID()}, o.End
	}
	wf := &workflow.Workflow{
		Name:          "standard-chain",
		ConditionsTag: condTag,
		PrimaryInputs: []string{"raw.banks"},
		Steps: []workflow.Step{
			{
				Name: "reconstruction", Software: "daspos-reco", Version: reco.New(e.det).Version,
				Config:  map[string]string{"geometry": e.det.Name + "/" + e.det.Version},
				Inputs:  []string{"raw.banks"},
				Outputs: []string{"reco.edm"},
				Run: func(ctx *workflow.Context) error {
					st, end := step("reconstruction")
					defer end()
					in, err := ctx.InputReader("raw.banks")
					if err != nil {
						return err
					}
					out, err := ctx.StreamOutput("reco.edm", "RECO")
					if err != nil {
						return err
					}
					fw, err := datamodel.NewFileWriter(out, datamodel.TierRECO)
					if err != nil {
						return err
					}
					stage := reco.ParallelStage(e.det, reco.DefaultConfig(), snap)
					p := eventflow.New(ctx.Ctx(), "reconstruction", opts)
					src := eventflow.Source(p, "raw-read", source(st, "rawdata.read", rawdata.NewReader(in).Read))
					recoS := eventflow.MapWorkers(src, "reconstruct", e.workers,
						func(w int) func(*rawdata.Event) (*datamodel.Event, bool, error) {
							fn := stage(w)
							if st.trace != 0 {
								fn = counted(tracks, func(ev *datamodel.Event) int { return len(ev.Tracks) }, fn)
							}
							return mapFn(st, "reco.reconstruct", fn)
						})
					eventflow.Sink(recoS, "reco-write", sink(st, "datamodel.write", fw.Write))
					if err := p.Wait(); err != nil {
						return err
					}
					reps.list = append(reps.list, p.Report())
					for _, f := range reco.Folders() {
						ctx.External("conditions:" + f)
					}
					if err := fw.Close(); err != nil {
						return err
					}
					return out.Commit(fw.Count())
				},
			},
			{
				Name: "aod-slim", Software: "daspos-datamodel", Version: "1.0",
				Inputs:  []string{"reco.edm"},
				Outputs: []string{"aod.edm"},
				Run: func(ctx *workflow.Context) error {
					st, end := step("aod-slim")
					defer end()
					in, err := ctx.InputReader("reco.edm")
					if err != nil {
						return err
					}
					fr, err := datamodel.NewFileReader(in)
					if err != nil {
						return err
					}
					out, err := ctx.StreamOutput("aod.edm", "AOD")
					if err != nil {
						return err
					}
					fw, err := datamodel.NewFileWriter(out, datamodel.TierAOD)
					if err != nil {
						return err
					}
					p := eventflow.New(ctx.Ctx(), "aod-slim", opts)
					src := eventflow.Source(p, "reco-read", source(st, "datamodel.read", fr.Read))
					aodS := eventflow.Map(src, "slim", e.workers, mapFn(st, "datamodel.slim", func(ev *datamodel.Event) (datamodel.Event, bool, error) {
						return ev.SlimViewAOD(), true, nil
					}))
					eventflow.Sink(aodS, "aod-write", sink(st, "datamodel.write", func(ev datamodel.Event) error { return fw.Write(&ev) }))
					if err := p.Wait(); err != nil {
						return err
					}
					reps.list = append(reps.list, p.Report())
					if err := fw.Close(); err != nil {
						return err
					}
					return out.Commit(fw.Count())
				},
			},
			{
				Name: "derivation-train", Software: "daspos-skim", Version: "1.0",
				Config:  map[string]string{"train": "DIMUON+MET"},
				Inputs:  []string{"aod.edm"},
				Outputs: []string{"skim.DIMUON", "skim.MET"},
				Run: func(ctx *workflow.Context) error {
					st, end := step("derivation-train")
					defer end()
					return runTrain(ctx, st, opts, reps)
				},
			},
		},
	}
	return wf, reps, tracks
}

// train is the production derivation train: a dimuon skim and a MET skim.
var train = skim.Train{
	Name: "prod-train",
	Derivations: []skim.Derivation{
		{
			Name:      "DIMUON",
			Selection: skim.Selection{Name: "dimuon", Cuts: []skim.Cut{{Variable: "n_muons", Op: skim.OpGE, Value: 2}}},
			Slim:      skim.SlimPolicy{KeepTypes: []datamodel.ObjectType{datamodel.ObjMuon}, DropAux: true},
		},
		{
			Name:      "MET",
			Selection: skim.Selection{Name: "met", Cuts: []skim.Cut{{Variable: "met", Op: skim.OpGT, Value: 30}}},
			Slim:      skim.SlimPolicy{MinCandidatePt: 10},
		},
	},
}

func runTrain(ctx *workflow.Context, st stageTracer, opts eventflow.Options, reps *stepReports) error {
	in, err := ctx.InputReader("aod.edm")
	if err != nil {
		return err
	}
	fr, err := datamodel.NewFileReader(in)
	if err != nil {
		return err
	}
	writers := make([]*workflow.ArtifactWriter, len(train.Derivations))
	files := make([]*datamodel.FileWriter, len(train.Derivations))
	for i, d := range train.Derivations {
		aw, err := ctx.StreamOutput("skim."+d.Name, "DERIVED")
		if err != nil {
			return err
		}
		fw, err := datamodel.NewFileWriter(aw, datamodel.TierDerived)
		if err != nil {
			return err
		}
		writers[i], files[i] = aw, fw
	}
	p := eventflow.New(ctx.Ctx(), "derivation-train", opts)
	src := eventflow.Source(p, "aod-read", source(st, "datamodel.read", fr.Read))
	eventflow.Sink(src, "derive", sink(st, "skim.derive", func(e *datamodel.Event) error {
		for i := range train.Derivations {
			derived, keep, err := train.Derivations[i].Apply(e)
			if err != nil {
				return err
			}
			if keep {
				if err := files[i].Write(derived); err != nil {
					return err
				}
			}
		}
		return nil
	}))
	if err := p.Wait(); err != nil {
		return err
	}
	reps.list = append(reps.list, p.Report())
	for i := range files {
		if err := files[i].Close(); err != nil {
			return err
		}
		if err := writers[i].Commit(files[i].Count()); err != nil {
			return err
		}
	}
	return nil
}

// archive puts every tier into the cluster-backed store, then reads each
// back and checks it byte for byte against the original and its digest.
// One store call is in flight at a time, so the scopes give exact parents.
func (e *produceEnv) archive(o *outcome, seed uint64, tiers map[string][]byte, root OpenSpan) map[string]string {
	ar := e.tr.Begin("produce.archive", root.Trace(), root.ID())
	defer ar.End()
	digests := make([]string, len(tierNames))
	for i, name := range tierNames {
		data, ok := tiers[name]
		if !ok {
			continue
		}
		o.attempted++
		sp := e.tr.Begin("cas.Store.Put", ar.Trace(), ar.ID())
		undo := e.casScope.enter(sp)
		d, err := e.store.Put(data)
		undo()
		sp.End()
		if err != nil {
			o.fail("production %d: archiving %s: %v", seed, name, err)
			continue
		}
		if d != cas.Digest(data) {
			o.fail("production %d: %s stored under %s, want %s", seed, name, d, cas.Digest(data))
		}
		digests[i] = d
	}
	for i, name := range tierNames {
		if digests[i] == "" {
			continue
		}
		o.attempted++
		sp := e.tr.Begin("cas.Store.Get", ar.Trace(), ar.ID())
		undo := e.casScope.enter(sp)
		got, err := e.store.Get(digests[i])
		undo()
		sp.End()
		switch {
		case err != nil:
			o.fail("production %d: reading back %s: %v", seed, name, err)
		case !bytes.Equal(got, tiers[name]):
			o.fail("production %d: %s read back %d bytes differing from the %d archived", seed, name, len(got), len(tiers[name]))
		case cas.Digest(got) != digests[i]:
			o.fail("production %d: %s read back with digest %s, want %s", seed, name, cas.Digest(got), digests[i])
		}
	}
	kept := map[string]string{}
	for i, d := range digests {
		if d != "" {
			kept[tierNames[i]] = d
		}
	}
	return kept
}

// summaryRecord is the HepData record a production publishes: its tier
// sizes as a table.
func summaryRecord(seed uint64, n, accepted int, tierBytes map[string]int64) *hepdata.Record {
	t := hepdata.Table{Name: "TierSizes", XHeader: "TIER", YHeader: "BYTES PER EVENT"}
	for i, name := range tierNames {
		x := float64(i)
		t.Points = append(t.Points, hepdata.Point{XLo: x - 0.5, X: x, XHi: x + 0.5,
			Y: float64(tierBytes[name]) / float64(max(accepted, 1))})
	}
	return &hepdata.Record{
		InspireID:     fmt.Sprintf("%07d", 8000000+n),
		Title:         fmt.Sprintf("Production %x summary: Drell-Yan at pileup %d", seed, producePileup),
		Collaboration: "DASPOS-GPD",
		Year:          2014,
		Tables:        []hepdata.Table{t},
	}
}

// layers fills the per-layer metrics from the productions' eventflow
// reports, the spans and the wrappers' counters.
func (e *produceEnv) layers(o *outcome, all []production) {
	busy := map[string]time.Duration{}
	var onlineWall, parallelBusy, parallelCap time.Duration
	var generated, accepted, skimKept, skimOffered int
	var hits, tracks, logical int64
	var execute, stepWalls time.Duration
	var mallocs uint64
	tierTotals := map[string]int64{}
	for _, p := range all {
		generated += p.generated
		accepted += p.accepted
		skimKept += p.skimKept
		skimOffered += p.skimOffered
		execute += p.execute
		stepWalls += p.stepWalls
		mallocs += p.mallocs
		hits += p.hits
		tracks += p.tracks
		for name, b := range p.tierBytes {
			tierTotals[name] += b
			logical += b
		}
		for _, r := range p.reports {
			if r.Pipeline == "online" {
				onlineWall += r.Wall
			}
			for _, s := range r.Stages {
				busy[s.Name] += s.Busy
				switch s.Name {
				case "simulate", "digitize", "reconstruct":
					parallelBusy += s.Busy
					parallelCap += time.Duration(s.Workers) * r.Wall
				}
			}
		}
	}
	n := float64(len(all))
	L := o.layers
	L["generator.busy_s"] = busy["generate"].Seconds()
	L["generator.util"] = ratio(busy["generate"].Seconds(), onlineWall.Seconds())
	L["sim.busy_s"] = busy["simulate"].Seconds()
	L["sim.hits_per_event"] = ratio(float64(hits), float64(generated))
	L["trigger.busy_s"] = busy["trigger"].Seconds()
	L["trigger.util"] = ratio(busy["trigger"].Seconds(), onlineWall.Seconds())
	L["trigger.accept_frac"] = ratio(float64(accepted), float64(generated))
	L["rawdata.digitize_busy_s"] = busy["digitize"].Seconds()
	L["rawdata.build_busy_s"] = busy["event-build"].Seconds()
	L["rawdata.build_util"] = ratio(busy["event-build"].Seconds(), onlineWall.Seconds())
	L["rawdata.read_busy_s"] = busy["raw-read"].Seconds()
	L["rawdata.bytes_per_event"] = ratio(float64(tierTotals["raw.banks"]), float64(accepted))
	L["reco.busy_s"] = busy["reconstruct"].Seconds()
	L["reco.tracks_per_event"] = ratio(float64(tracks), float64(accepted))
	L["datamodel.read_busy_s"] = (busy["reco-read"] + busy["aod-read"]).Seconds()
	L["datamodel.write_busy_s"] = (busy["reco-write"] + busy["aod-write"]).Seconds()
	L["datamodel.slim_busy_s"] = busy["slim"].Seconds()
	L["datamodel.reco_bytes"] = float64(tierTotals["reco.edm"]) / n
	L["datamodel.aod_bytes"] = float64(tierTotals["aod.edm"]) / n
	L["skim.busy_s"] = busy["derive"].Seconds()
	L["skim.keep_frac"] = ratio(float64(skimKept), float64(skimOffered))
	L["eventflow.parallel_idle_frac"] = 1 - ratio(parallelBusy.Seconds(), parallelCap.Seconds())
	L["workflow.execute_s"] = execute.Seconds()
	L["workflow.overhead_s"] = (execute - stepWalls).Seconds()

	spans := e.tr.Spans()
	self := SelfTimes(spans)
	L["cas.put_s"] = self["cas.Store.Put"].Seconds()
	L["cas.get_s"] = self["cas.Store.Get"].Seconds()
	L["cas.stored_frac"] = ratio(float64(e.backend.stored.Load()), float64(e.backend.logical.Load()))
	L["cluster.putblob_s"] = self["cluster.PutBlob"].Seconds()
	L["cluster.getblob_s"] = self["cluster.GetBlob"].Seconds()
	L["cluster.hasblob_s"] = self["cluster.HasBlob"].Seconds()
	L["cluster.allocs_per_mb"] = ratio(float64(mallocs), float64(logical)/1e6)
	L["cluster.wire_mb"] = float64(e.nodes.putBytes.Load()+e.backend.getBytes.Load()) / 1e6
	L["cluster.failed_ops"] = float64(e.backend.failed.Load())
	L["node.put_s"] = self["node.put"].Seconds()
	L["node.get_s"] = self["node.get"].Seconds()
	L["node.requests"] = float64(e.nodes.requests.Load())
}
