// Command perfbench is the repository benchmark. It drives one workload
// through the layers' public Go APIs and prints, as its last line, one
// JSON object with the end-to-end metrics (untraced run, -trace 0) or the
// per-layer metrics (traced run, -trace 1).
//
//	go run . -workload produce|reinterpret|serve -seed N -seconds S -trace 0|1
//
// The workloads and metrics are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef is a metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every workload reports with tracing on; a layer
// the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"generator.busy_s", "s"}, {"generator.util", "ratio"},
	{"sim.busy_s", "s"}, {"sim.hits_per_event", "count"},
	{"trigger.busy_s", "s"}, {"trigger.util", "ratio"}, {"trigger.accept_frac", "ratio"},
	{"rawdata.digitize_busy_s", "s"}, {"rawdata.build_busy_s", "s"}, {"rawdata.build_util", "ratio"},
	{"rawdata.read_busy_s", "s"}, {"rawdata.bytes_per_event", "B"},
	{"reco.busy_s", "s"}, {"reco.tracks_per_event", "count"},
	{"datamodel.read_busy_s", "s"}, {"datamodel.write_busy_s", "s"}, {"datamodel.slim_busy_s", "s"},
	{"datamodel.reco_bytes", "B"}, {"datamodel.aod_bytes", "B"},
	{"skim.busy_s", "s"}, {"skim.keep_frac", "ratio"},
	{"eventflow.parallel_idle_frac", "ratio"},
	{"workflow.execute_s", "s"}, {"workflow.overhead_s", "s"},
	{"cas.put_s", "s"}, {"cas.get_s", "s"}, {"cas.stored_frac", "ratio"},
	{"cluster.putblob_s", "s"}, {"cluster.getblob_s", "s"}, {"cluster.hasblob_s", "s"},
	{"cluster.allocs_per_mb", "allocs/MB"}, {"cluster.wire_mb", "MB"}, {"cluster.failed_ops", "count"},
	{"node.put_s", "s"}, {"node.get_s", "s"}, {"node.requests", "count"},
	{"recast.submit_ms_p50", "ms"}, {"recast.queue_wait_ms_p50", "ms"}, {"recast.backend_s", "s"},
	{"recast.backend_ms_p50", "ms"}, {"recast.repeat_answer_ms_p50", "ms"}, {"recast.dedup_frac", "ratio"},
	{"recast.shed", "count"}, {"recast.polls_per_answer", "count"},
	{"queryserve.handler_us_p50.lookup_hot", "us"}, {"queryserve.handler_us_p50.lookup_cold", "us"},
	{"queryserve.handler_us_p50.revalidate", "us"}, {"queryserve.handler_us_p50.search", "us"},
	{"queryserve.handler_us_p50.scan", "us"}, {"queryserve.handler_us_p50.export", "us"},
	{"queryserve.handler_us_p50.publish", "us"},
	{"queryserve.cache_hit_frac", "ratio"}, {"queryserve.not_modified_frac", "ratio"},
	{"queryserve.coalesced", "count"}, {"queryserve.evictions", "count"}, {"http.overhead_us_p50", "us"},
	{"hepdata.store_reads", "count"}, {"hepdata.store_get_us_p50", "us"},
	{"serve.gen_lag_ms_p99", "ms"}, {"serve.backlog_max", "count"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_events_per_s", "1/s"}, {"trace.overhead_answer_p50_ms", "ms"},
	{"trace.overhead_read_p50_ms", "ms"},
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	tmp     string // scratch directory inside the checkout
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int64
	// cpu_ms_per_op is cpu ÷ ops: events for produce, answers for
	// reinterpret, requests of the nominal-rate phase for serve. A
	// workload that leaves cpu 0 is charged the whole measurement.
	ops      int64
	cpu      time.Duration
	failures []string
	e2e      map[string]float64
	layers   map[string]float64
	// report lines name the workload's own metrics (events_per_s,
	// read_p99_ms, ...) for a human reader; they precede the JSON line.
	report []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds a concurrent part's counts and failures to o.
func (o *outcome) merge(part outcome) {
	o.attempted += part.attempted
	for _, f := range part.failures {
		o.fail("%s", f)
	}
	o.failed += part.failed - int64(len(part.failures))
}

func (o *outcome) note(name string, v float64, unit string) {
	o.report = append(o.report, fmt.Sprintf("%-34s %14.4f %s", name, v, unit))
}

// env is a built workload, ready to measure.
type env interface {
	measure(o *outcome) error
	close()
}

// workload is a named benchmark workload. inputs generates, once per
// run, the inputs setup hands to the program; it is not part of setup_s.
// An untraced run builds the workload setups times and reports the median
// as setup_s; only the last build is measured.
type workload struct {
	inputs func(seed uint64) (any, error)
	setup  func(cfg config, tr *Tracer, in any) (env, error)
	setups int
}

func noInputs(uint64) (any, error) { return nil, nil }

var workloads = map[string]workload{
	"produce":     {noInputs, setupProduce, 7},
	"reinterpret": {noInputs, setupReinterpret, 15},
	"serve":       {buildCorpus, setupServe, 3},
}

func main() {
	name := flag.String("workload", "", "workload: produce, reinterpret or serve")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for journals, ledgers and span files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload produce|reinterpret|serve -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := run(*name, w, *seed, *seconds, *trace == 1, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, w workload, seed uint64, seconds int, traced bool, scratch string) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := config{seed: seed, seconds: time.Duration(seconds) * time.Second, tmp: tmp}
	in, err := w.inputs(seed)
	if err != nil {
		return fmt.Errorf("%s inputs: %w", name, err)
	}

	var (
		o  *outcome
		tr *Tracer
	)
	if !traced {
		var setups []float64
		if o, setups, err = pass(name, w, cfg, nil, in, w.setups); err != nil {
			return err
		}
		o.e2e["setup_s"] = median(setups)
		if o.ops > 0 {
			o.e2e["cpu_ms_per_op"] = ms(o.cpu) / float64(o.ops)
		}
		o.e2e["peak_rss_mb"] = peakRSSMB()
	} else {
		// The traced run measures the workload untraced for the first half
		// of its seconds and traced, in a fresh build, for the second: the
		// tracing overhead is the difference between the two halves, and
		// the per-layer metrics come from the second.
		cfg.seconds /= 2
		plain, _, err := pass(name, w, cfg, nil, in, 1)
		if err != nil {
			return err
		}
		tr = NewTracer()
		cfg.traced = true
		if o, _, err = pass(name, w, cfg, tr, in, 1); err != nil {
			return err
		}
		for _, k := range overheadOf {
			if v, ok := o.e2e[k]; ok {
				o.layers["trace.overhead_"+k] = v - plain.e2e[k]
			}
		}
		o.merge(*plain)
	}

	fmt.Printf("workload %s, seed %d, %ds, trace %v, GOMAXPROCS %d\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0))
	if !traced {
		o.note("setup_s", o.e2e["setup_s"], "s")
		o.note("cpu_ms_per_op", o.e2e["cpu_ms_per_op"], "ms")
		o.note("peak_rss_mb", o.e2e["peak_rss_mb"], "MB")
	}
	o.note("failed_frac", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	for _, line := range o.report {
		fmt.Println(line)
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}

	defs, values := endToEnd, o.e2e
	if traced {
		defs, values = perLayer, o.layers
		spans := tr.Spans()
		values["trace.spans"] = float64(len(spans))
		path := filepath.Join(scratch, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tr.WriteJSONL(path); err != nil {
			return err
		}
		fmt.Printf("%d spans written to %s\n", len(spans), path)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !traced {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s did not measure %s", name, strings.Join(missing, ", "))
	}
	if o.attempted < 1 {
		return fmt.Errorf("%s attempted nothing", name)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, o.failed, o.attempted)
	}
	return nil
}

// overheadOf names the workload metrics whose traced-minus-untraced
// difference is reported as trace.overhead_<name>; each workload puts
// its one in outcome.e2e.
var overheadOf = []string{"events_per_s", "answer_p50_ms", "read_p50_ms"}

// pass builds the workload repeats times, keeping the last build, and
// measures it. It returns the set-up times of every build.
func pass(name string, w workload, cfg config, tr *Tracer, in any, repeats int) (*outcome, []float64, error) {
	var (
		e      env
		err    error
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC() // so each build, and peak RSS, starts from one built workload at most
		t0 := time.Now()
		if e, err = w.setup(cfg, tr, in); err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	if err := e.measure(o); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	if o.cpu == 0 {
		o.cpu = cpuTime() - cpu0
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.layers["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	o.layers["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	o.layers["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return o, setups, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
