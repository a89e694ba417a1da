// Command perfbench is the repository's benchmark. It runs one named
// workload against the program built from this checkout, checks the
// program's outputs, and prints the metrics as JSON.
//
//	bash perfbench/run.sh --workload http-probe --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, measured from
// spans the benchmark records around its own calls into each layer. The
// line before it is a detailed record (seed, host fingerprint, offered and
// achieved rates, client count and the sample count behind every
// percentile) that perfbench/compare.py reads. See perfbench/README.md
// for the workloads and for which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run repeats its set-up; setup_s is the
// median, so one slow page-in or GC does not move it.
const setupReps = 5

// bench is one named workload, the benchmark input. A run sets it up setupReps
// times (tearing down all but the last), measures it, and tears it down.
type bench interface {
	setup(e *env) error
	teardown()
	// measure runs the timed window for at least d and returns what the
	// end-to-end metrics are computed from; tr is nil when tracing is off.
	measure(e *env, d time.Duration, tr *tracer) (*segment, error)
	// layers adds the workload's per-layer metrics, measured from a traced
	// segment (or by its own replays where the layer is not reachable from
	// the timed calls).
	layers(e *env, seg *segment, tr *tracer, r *result) error
	// unattributed is the end-to-end time per latency op, in µs, that no
	// layer part accounts for.
	unattributed(seg *segment, tr *tracer, r *result) float64
}

// entry names a workload and, for the traced panel, how long its layer
// measurement runs when another workload is the one under test (zero: one
// sweep or cycle).
type entry struct {
	name     string
	make     func() bench
	panelDur time.Duration
}

var workloads = []entry{
	{name: "http-probe", make: func() bench { return &httpProbe{} }, panelDur: 1500 * time.Millisecond},
	{name: "live-open-rho50", make: func() bench { return &liveOpen{rho: 0.5} }, panelDur: 2 * time.Second},
	{name: "live-open-rho90", make: func() bench { return &liveOpen{rho: 0.9} }, panelDur: 2 * time.Second},
	{name: "sim-sweep", make: func() bench { return &simSweep{} }},
	// qbd-bracket runs on demand and in every traced run's panel, but is
	// not in BENCHMARK.json: its dense linear algebra swings with co-tenant
	// load for minutes at a time, and over ten seeds its p99 spread reached
	// the largest bound a metric may have.
	{name: "qbd-bracket", make: func() bench { return &qbdBracket{} }},
}

// env is what every workload sees of the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	lbd     string // path of the built cmd/lbd binary
	// kill collects the cleanup of every child process, run on exit and
	// on SIGINT/SIGTERM so no child outlives the benchmark.
	kill *killer
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+names())
		seed    = flag.Uint64("seed", 1, "workload seed; every generated input derives from it")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		traceOn = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		lbdPath = flag.String("lbd", "", "path of the cmd/lbd binary built from this checkout")
		spanDir = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	ent, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", names())
		os.Exit(2)
	}
	if _, err := os.Stat(*lbdPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: lbd binary: %v\n", err)
		os.Exit(2)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		lbd:     *lbdPath,
		kill:    &killer{},
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.kill.all()
		os.Exit(1)
	}()

	r := newResult(ent.name, *seed, *traceOn == 1, e.seconds)
	var err error
	if *traceOn == 1 {
		err = tracedRun(e, ent, r, *spanDir)
	} else {
		err = plainRun(e, ent, r)
	}
	e.kill.all()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", ent.name, err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func lookup(name string) (entry, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return entry{}, false
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// setupMedian sets w up setupReps times, tearing down all but the last,
// and returns the median set-up time in seconds.
func setupMedian(e *env, w bench) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return quantile(ts, 0.5), nil
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(e *env, ent entry, r *result) error {
	w := ent.make()
	setup, err := setupMedian(e, w)
	defer w.teardown()
	if err != nil {
		return err
	}
	seg, err := w.measure(e, e.seconds, nil)
	if err != nil {
		return err
	}
	r.endToEnd(setup, seg, setupReps)
	return nil
}

// tracedRun measures the workload untraced and traced for half the window
// each (their difference is the tracing overhead), derives its per-layer
// metrics from the traced half, and then measures every other workload's
// layers in a short panel, so each traced run reports every layer.
func tracedRun(e *env, ent entry, r *result, spanDir string) error {
	w := ent.make()
	setup, err := setupMedian(e, w)
	if err != nil {
		w.teardown()
		return err
	}
	half := e.seconds / 2
	plain, err := w.measure(e, half, nil)
	if err != nil {
		w.teardown()
		return err
	}
	r.endToEnd(setup, plain, setupReps)
	tr := newTracer(1 << 19)
	seg, err := w.measure(e, half, tr)
	if err != nil {
		w.teardown()
		return err
	}
	r.count(seg)
	err = w.layers(e, seg, tr, r)
	w.teardown()
	if err != nil {
		return err
	}
	r.layer("bench.trace_overhead", "ratio", seg.summary().p50/plain.summary().p50-1, len(seg.lat))
	r.layer("bench.cpu_ms_per_kop", "ms", plain.summary().cpuPerKop, int(plain.ops))
	r.layer("bench.unattributed", "us", w.unattributed(seg, tr, r), len(seg.lat))
	if err := tr.write(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", ent.name, e.seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	}

	for _, other := range workloads {
		if other.name == ent.name {
			continue
		}
		if err := panelLayers(e, other, r); err != nil {
			return fmt.Errorf("panel %s: %w", other.name, err)
		}
	}
	if err := microLayers(e, r); err != nil {
		return fmt.Errorf("panel micro: %w", err)
	}
	return nil
}

// panelLayers measures one other workload's layers: one set-up, a short
// traced window, and its layer derivation. Its end-to-end numbers are not
// reported; its output checks still count.
func panelLayers(e *env, ent entry, r *result) error {
	w := ent.make()
	defer w.teardown()
	if err := w.setup(e); err != nil {
		return err
	}
	tr := newTracer(1 << 18)
	seg, err := w.measure(e, ent.panelDur, tr)
	if err != nil {
		return err
	}
	r.count(seg)
	return w.layers(e, seg, tr, r)
}

// hostFingerprint identifies the machine a result was measured on; the
// compare command refuses to compare results whose fingerprints differ.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"kernel":     kernel,
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// metric is one reported number. N is the sample count behind it (for a
// percentile, the number of observations it was taken from).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result accumulates one run's outcome.
type result struct {
	workload  string
	seed      uint64
	traced    bool
	seconds   time.Duration
	attempted int64
	failed    int64
	checks    []string // failed output checks, first few kept
	nChecks   int
	info      map[string]any
	e2e       map[string]metric
	perLayer  map[string]metric
}

func newResult(name string, seed uint64, traced bool, seconds time.Duration) *result {
	return &result{
		workload: name, seed: seed, traced: traced, seconds: seconds,
		checks:   []string{},
		info:     map[string]any{},
		e2e:      map[string]metric{},
		perLayer: map[string]metric{},
	}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.nChecks++
	if len(r.checks) < 20 {
		msg := fmt.Sprintf(format, args...)
		r.checks = append(r.checks, msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
}

// count folds a segment's operation ledger and failed checks into the run.
func (r *result) count(seg *segment) {
	r.attempted += seg.attempted
	r.failed += seg.failed
	for _, c := range seg.checks {
		r.fail("%s", c)
	}
	r.nChecks += seg.moreChecks
}

func (r *result) layer(name, unit string, v float64, n int) {
	r.perLayer[name] = metric{Value: v, Unit: unit, N: n}
}

// endToEnd sets the end-to-end metrics from an untraced segment.
func (r *result) endToEnd(setup float64, seg *segment, setupN int) {
	r.count(seg)
	sum := seg.summary()
	r.info["estimator"] = sum.how
	r.e2e["setup_s"] = metric{Value: setup, Unit: "s", N: setupN}
	r.e2e["throughput"] = metric{Value: sum.tput, Unit: "ops/s", N: int(seg.ops)}
	r.e2e["latency_p50_us"] = metric{Value: sum.p50, Unit: "us", N: sum.n}
	r.e2e["latency_p99_us"] = metric{Value: sum.p99, Unit: "us", N: sum.n}
	r.e2e["peak_rss_mb"] = metric{Value: seg.rssMB, Unit: "MB", N: 1}
	// CPU per op is kept in the record but is not an end-to-end metric: on
	// live-open-rho90 it follows the host's timer jitter, through the
	// servers' spin margin, and spread 0.30 over ten seeds on a shared host.
	r.info["cpu_ms_per_kop"] = sum.cpuPerKop
	r.info["op"] = seg.op
	r.info["latency_op"] = seg.latOp
	r.info["clients"] = seg.clients
	r.info["window_s"] = seg.elapsed.Seconds()
	r.info["achieved_rate"] = float64(seg.ops) / seg.elapsed.Seconds()
	if seg.offered > 0 {
		r.info["offered_rate"] = seg.offered
	}
	for k, v := range seg.info {
		r.info[k] = v
	}
}

// print writes the detailed record and then the one-line result the
// contract asks for, which is the last line of standard output.
func (r *result) print(f *os.File) error {
	failed := r.failed
	if failed == 0 && r.nChecks > 0 {
		// A check that failed outside any counted operation still fails
		// the run.
		failed = 1
	}
	attempted := max(r.attempted, failed, 1)
	shown := r.e2e
	if r.traced {
		shown = r.perLayer
	}
	record := map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"trace":         r.traced,
		"seconds":       r.seconds.Seconds(),
		"fingerprint":   hostFingerprint(),
		"info":          r.info,
		"attempted":     attempted,
		"failed":        failed,
		"fail_ratio":    float64(failed) / float64(attempted),
		"failed_checks": r.checks,
		"metrics":       r.e2e,
		"layers":        r.perLayer,
		"unix_utc":      time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.Marshal(map[string]any{"record": record})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, string(b)); err != nil {
		return err
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]short{}
	for k, m := range shown {
		ms[k] = short{m.Value, m.Unit}
	}
	b, err = json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}
