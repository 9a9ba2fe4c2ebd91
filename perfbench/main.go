// Command perfbench is the repository benchmark. It drives the certify
// evidence machine through its public entry points on one workload,
// checks every output, and prints one JSON result line as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload fig3-evidence --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json, measured with tracing off; their timings are scaled to a
// reference host speed (see speed.go). With --trace 1 the same
// workload runs untraced and then traced on the same inputs, and the
// result carries the per-layer metrics. PREDICTIONS.md says which
// end-to-end metric each per-layer metric should move, and on which
// workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/sim"
)

// goldenTraceHash is the engine's fault-free golden trace digest; the
// seed-2022 40-run E3-fig3 campaign splits 23 correct / 1 inconsistent /
// 16 panic-park with 56 injections. Both are checked before timing.
const goldenTraceHash = 0xa10df7f198db0642

// setupReps is how many times a run builds its workload's system; setup_s
// is the median.
const setupReps = 21

// interval is a timed stretch of wall time.
type interval struct{ from, to time.Time }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload. A
// layer a workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.restore_us", "us"},
	{"core.cold_builds", "count"},
	{"core.build_ms", "ms"},
	{"core.inject_setup_us", "us"},
	{"core.classify_us", "us"},
	{"core.put_us", "us"},
	{"sim.run_ms", "ms"},
	{"sim.events_per_run", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.trace_records_per_run", "count"},
	{"sim.trace_hash_ms", "ms"},
	{"jailhouse.hook_calls_per_run", "count"},
	{"jailhouse.injections_per_run", "count"},
	{"dist.encode_us", "us"},
	{"dist.record_bytes", "bytes"},
	{"dist.close_ms", "ms"},
	{"dist.merge_ms", "ms"},
	{"dist.open_ms", "ms"},
	{"dist.raw_run_us", "us"},
	{"dist.raw_is_canonical", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_s", "s"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_hit_ms", "ms"},
	{"serve.run_read_ms", "ms"},
	{"serve.artefact_ms", "ms"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// workloads maps a workload name to the function that runs it. Each runs
// its set-up setupReps times, measures for b.seconds and checks its outputs.
var workloads = map[string]func(*bench) error{
	"fig3-evidence": runFig3,
	"serve-mixed":   runServe,
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	nproc    int
	dir      string
	tr       *tracer
	probe    *speedProbe

	seedMu    sync.Mutex
	seedState uint64

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string

	metrics map[string]metric // gated metrics of this mode
	report  map[string]metric // further figures, printed and archived

	// The workload records these; finish turns them into the timed
	// end-to-end metrics once the speed probe has stopped.
	setups []interval // each set-up
	jobs   []interval // each job of the untraced run
	timed  []interval // the timed stretches of the untraced run
	runs   int        // runs executed in the timed stretches
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: fig3-evidence or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {fig3-evidence|serve-mixed} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	b := &bench{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		traced:    *traceFlag == 1,
		nproc:     runtime.NumCPU(),
		seedState: *seed,
		metrics:   make(map[string]metric),
		report:    make(map[string]metric),
	}
	if b.traced {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.dir = dir
	defer os.RemoveAll(dir)

	b.probe = startSpeedProbe()
	defer b.probe.halt()
	b.gate()
	if b.failed.Load() == 0 {
		if err := drive(b); err != nil {
			b.fail("%s: %v", b.workload, err)
		}
	}
	return b.finish()
}

// gate checks the two engine goldens before anything is timed.
func (b *bench) gate() {
	gp, err := core.GoldenRun(2022, sim.Minute)
	b.check(err == nil && gp.TraceHash == goldenTraceHash,
		"golden run: err=%v trace hash %#x, want %#x", err, traceHashOf(gp), uint64(goldenTraceHash))
	c := &core.Campaign{Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Workers: b.nproc, Mode: core.ModeDistribution}
	res, err := c.Execute(context.Background())
	ok := err == nil && res.Count(core.OutcomeCorrect) == 23 && res.Count(core.OutcomeInconsistent) == 1 &&
		res.Count(core.OutcomePanicPark) == 16 && res.InjectionsTotal() == 56
	b.check(ok, "E3-fig3 seed 2022 x40: err=%v distribution %v, injections %d; want 23/1/16 with 56",
		err, distributionOf(res), injectionsOf(res))
}

func traceHashOf(gp *core.GoldenProfile) uint64 {
	if gp == nil {
		return 0
	}
	return gp.TraceHash
}

func distributionOf(res *core.CampaignResult) map[core.Outcome]int {
	if res == nil {
		return nil
	}
	out := res.Distribution()
	for o, n := range out {
		if n == 0 {
			delete(out, o)
		}
	}
	return out
}

func injectionsOf(res *core.CampaignResult) int {
	if res == nil {
		return -1
	}
	return res.InjectionsTotal()
}

// nextSeed draws the next input seed from the workload seed's chain.
func (b *bench) nextSeed() uint64 {
	b.seedMu.Lock()
	defer b.seedMu.Unlock()
	return sim.SplitMix64(&b.seedState)
}

// op counts one attempted operation and, when err is non-nil, its
// failure. It reports whether the operation succeeded.
func (b *bench) op(err error, what string) bool {
	b.attempted.Add(1)
	if err != nil {
		b.recordFailure(fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// check counts one output check as an operation, failed when !ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted.Add(1)
	if !ok {
		b.recordFailure(fmt.Sprintf(format, args...))
	}
	return ok
}

// fail records a failure that ends the workload.
func (b *bench) fail(format string, args ...any) {
	b.attempted.Add(1)
	b.recordFailure(fmt.Sprintf(format, args...))
}

func (b *bench) recordFailure(msg string) {
	b.failed.Add(1)
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
}

// setup runs build setupReps times and records each for setup_s. Every
// build but the last is torn down with release; the last is kept.
func setup[T any](b *bench, build func() (T, error), release func(T)) (T, error) {
	var last T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, interval{start, time.Now()})
		last = v
	}
	b.resetPeakRSS()
	return last, nil
}

// resetPeakRSS returns the set-up garbage to the OS and restarts the
// kernel's peak-RSS count, so max_rss_mb is the peak of the measured phase.
// Where the reset is refused, max_rss_mb covers the whole process; the
// report says which.
func (b *bench) resetPeakRSS() {
	debug.FreeOSMemory()
	since := 0.0
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil {
		since = 1
	}
	b.report["rss_peak_since_setup"] = metric{since, "bool"}
}

// warmPool brings n machines of pool to the post-boot state of every
// profile in opts, so measured runs restore instead of building. It
// returns the cold build times in milliseconds.
func warmPool(pool *core.MachinePool, opts []core.MachineOptions, n int) ([]float64, error) {
	var builds []float64
	held := make([]*core.Machine, 0, n)
	for _, o := range opts {
		for i := 0; i < n; i++ {
			before, _ := pool.Stats()
			start := time.Now()
			m, err := pool.Get(o)
			if err != nil {
				return nil, err
			}
			if after, _ := pool.Stats(); after > before {
				builds = append(builds, float64(time.Since(start))/1e6)
			}
			held = append(held, m)
		}
		for _, m := range held {
			pool.Put(m)
		}
		held = held[:0]
	}
	return builds, nil
}

// timeMetrics stops the speed probe and records the timed end-to-end
// metrics: setup_s, the median set-up; job_p50_s and job_p90_s; and
// runs_per_s, the runs executed over the timed time. Each is scaled to the
// reference host; the wall figures go to the report with a _wall suffix.
func (b *bench) timeMetrics() {
	b.probe.halt()
	probes := b.probe.probeTimes()
	b.report["probe_p50_ms"] = metric{median(probes) * 1e3, "ms"}
	b.report["probe_samples"] = metric{float64(len(probes)), "count"}
	if !b.check(len(probes) >= probeMinimum, "speed probe: %d samples, want at least %d", len(probes), probeMinimum) {
		return
	}
	type figure struct {
		name      string
		ivs       []interval
		summarise func([]float64) float64
	}
	total := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return float64(b.runs) / s
	}
	for _, f := range []figure{
		{"setup_s", b.setups, median},
		{"job_p50_s", b.jobs, median},
		{"job_p90_s", b.jobs, func(v []float64) float64 { return quantile(v, 0.9) }},
		{"runs_per_s", b.timed, total},
	} {
		if len(f.ivs) == 0 {
			continue
		}
		wall := make([]float64, len(f.ivs))
		scaled := make([]float64, len(f.ivs))
		for i, iv := range f.ivs {
			wall[i] = iv.to.Sub(iv.from).Seconds()
			scaled[i] = b.probe.scaled(iv.from, iv.to)
		}
		unit := unitOf(f.name)
		b.metrics[f.name] = metric{f.summarise(scaled), unit}
		b.report[f.name+"_wall"] = metric{f.summarise(wall), unit}
	}
	b.report["job_samples"] = metric{float64(len(b.jobs)), "count"}
	b.report["runs"] = metric{float64(b.runs), "count"}
}

// finish prints the report and the result line and returns the exit code.
func (b *bench) finish() int {
	if !b.traced && b.failed.Load() == 0 {
		b.timeMetrics()
	}
	// A workload may have taken the peak over a window of its own.
	if _, set := b.metrics["max_rss_mb"]; !set {
		if kb, err := peakRSSKiB(); err == nil {
			b.metrics["max_rss_mb"] = metric{kb / 1024, "MB"}
		} else if !b.traced {
			b.fail("max_rss_mb: %v", err)
		}
	}
	if b.tr != nil {
		b.layerMetrics()
	}
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	published := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := b.metrics[m.name]
		if !ok {
			v = metric{0, m.unit}
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			b.fail("%s is not a number: %v", m.name, v.Value)
		}
		published[m.name] = v
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	failedPct := metric{100 * float64(failed) / math.Max(1, float64(attempted)), "%"}
	b.report["failed_pct"] = failedPct
	correct := failed == 0
	if !correct {
		// A run that failed a check publishes no numbers.
		published = map[string]metric{}
		b.report = map[string]metric{"failed_pct": failedPct}
	}
	b.writeReport(published, attempted, failed)

	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(attempted, 1), failed, published})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// peakRSSKiB reads the process's peak resident set (VmHWM), which the
// reset in resetPeakRSS restarts.
func peakRSSKiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, err
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostFacts are recorded with every result.
func (b *bench) hostFacts() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+modified"
			}
		}
	}
	trace := 0
	if b.traced {
		trace = 1
	}
	return map[string]any{
		"nproc":      b.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_rev":    rev,
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"trace":      trace,
		"reproduce": fmt.Sprintf("bash perfbench/run.sh --workload %s --seed %d --seconds %g --trace %d",
			b.workload, b.seed, b.seconds.Seconds(), trace),
	}
}

// jobLog lists each job as its start since the probe's epoch, its wall
// time and its scaled time, in seconds.
func (b *bench) jobLog() [][3]float64 {
	out := make([][3]float64, len(b.jobs))
	for i, iv := range b.jobs {
		out[i] = [3]float64{iv.from.Sub(b.probe.epoch).Seconds(), iv.to.Sub(iv.from).Seconds(), b.probe.scaled(iv.from, iv.to)}
	}
	return out
}

// writeReport prints every metric by name and unit on stderr and archives
// the run (host facts, metrics, failures, spans) under .bench_build/results.
func (b *bench) writeReport(published map[string]metric, attempted, failed int64) {
	facts := b.hostFacts()
	var sb strings.Builder
	fmt.Fprintf(&sb, "perfbench %s: %s\n", b.workload, facts["reproduce"])
	fmt.Fprintf(&sb, "  host: nproc=%d GOMAXPROCS=%d %s rev=%s\n", b.nproc, runtime.GOMAXPROCS(0), runtime.Version(), facts["git_rev"])
	fmt.Fprintf(&sb, "  operations: %d attempted, %d failed\n", attempted, failed)
	for _, f := range b.failures {
		fmt.Fprintf(&sb, "  FAILED: %s\n", f)
	}
	printMetrics(&sb, "metric", published)
	printMetrics(&sb, "report", b.report)
	os.Stderr.WriteString(sb.String())

	results := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
		return
	}
	base := filepath.Join(results, fmt.Sprintf("%s-seed%d-trace%v", b.workload, b.seed, facts["trace"]))
	doc, _ := json.MarshalIndent(map[string]any{
		"host": facts, "attempted": attempted, "failed": failed, "failures": b.failures,
		"metrics": published, "report": b.report, "jobs": b.jobLog(), "probes": b.probe.samples(),
	}, "", "  ")
	if err := os.WriteFile(base+".json", append(doc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
	}
	if b.tr != nil {
		if err := b.tr.write(base + "-spans.jsonl"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}

func printMetrics(sb *strings.Builder, label string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(sb, "  %s %-30s %14.6g %s\n", label, n, ms[n].Value, ms[n].Unit)
	}
}

// quantile interpolates linearly between the order statistics of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
