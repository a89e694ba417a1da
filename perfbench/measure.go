package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// segment is one timed window of a workload.
type segment struct {
	op      string // what one throughput op is
	latOp   string // what one latency sample times
	ops     int64  // completed ops, the throughput numerator
	elapsed time.Duration
	lat     []float64 // one latency per latency op, µs
	cpu     time.Duration
	rssMB   float64
	clients int
	offered float64 // offered op rate of an open loop, 0 for a closed loop
	info    map[string]any

	// windows, when set, split the timed window into 1 s slices.
	windows []window
	// cells, when set, hold the runs of a CPU-bound workload's cells.
	cells []cellRuns

	attempted, failed int64    // checked operations and how many failed
	checks            []string // failed output checks, first few kept
	moreChecks        int      // failed checks beyond the kept ones

	data any // workload-specific detail for the layer derivation
}

func (s *segment) p50() float64 { return quantile(s.lat, 0.5) }

// cellRuns holds every timed run of one cell of a CPU-bound workload.
type cellRuns struct {
	ops  int64 // ops one run of the cell completes
	wall []time.Duration
	cpu  []time.Duration
}

func (c *cellRuns) add(wall, cpu time.Duration) {
	c.wall = append(c.wall, wall)
	c.cpu = append(c.cpu, cpu)
}

func minDuration(ds []time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds[1:] {
		m = min(m, d)
	}
	return m
}

// summary is what the end-to-end timing metrics read from a segment.
type summary struct {
	tput, p50, p99, cpuPerKop float64
	n                         int    // samples behind p50 and p99
	how                       string // which estimator produced them
}

// summary reduces a segment to its timing metrics. A CPU-bound workload
// (cells set) is summarised by each cell's fastest run: on a shared host,
// co-tenant load slows CPU-bound work by up to a quarter for tens of
// seconds at a time, so the run's median drifts with the host while each
// cell's fastest run tracks the program's own cost. Its throughput is one
// pass over the cells at those fastest times, and its percentiles are over
// the cells' fastest times. A sliced workload reports the median over its
// 1 s slices; otherwise the whole window is used.
func (s *segment) summary() summary {
	switch {
	case len(s.cells) > 0:
		var ops int64
		var wall, cpu time.Duration
		var lat []float64
		for i := range s.cells {
			c := &s.cells[i]
			best := minDuration(c.wall)
			ops += c.ops
			wall += best
			cpu += minDuration(c.cpu)
			lat = append(lat, float64(best)/1e3)
		}
		return summary{
			tput: float64(ops) / wall.Seconds(), p50: quantile(lat, 0.5), p99: quantile(lat, 0.99),
			cpuPerKop: cpu.Seconds() * 1e3 / (float64(ops) / 1e3), n: len(lat), how: "fastest run of each cell",
		}
	case len(s.windows) > 0:
		var ts, p50s, p99s, cpus []float64
		for _, w := range s.windows {
			ts = append(ts, float64(w.ops)/windowWidth.Seconds())
			cpus = append(cpus, w.cpu.Seconds()*1e3/(float64(w.ops)/1e3))
			p50s = append(p50s, quantile(w.lat, 0.5))
			p99s = append(p99s, quantile(w.lat, 0.99))
		}
		return summary{
			tput: quantile(ts, 0.5), p50: quantile(p50s, 0.5), p99: quantile(p99s, 0.5),
			cpuPerKop: quantile(cpus, 0.5), n: len(s.lat), how: fmt.Sprintf("median over %d slices of %v", len(s.windows), windowWidth),
		}
	}
	return summary{
		tput: float64(s.ops) / s.elapsed.Seconds(), p50: s.p50(), p99: quantile(s.lat, 0.99),
		cpuPerKop: s.cpu.Seconds() * 1e3 / (float64(s.ops) / 1e3), n: len(s.lat), how: "whole window",
	}
}

// windowWidth is the slice over which the live workloads compute each
// end-to-end metric. A run reports the median over its slices, so a
// transient stall on a shared host moves one slice, not the run.
const windowWidth = time.Second

// window is one slice of a segment.
type window struct {
	ops int64
	lat []float64
	cpu time.Duration
}

// addWindows slices a segment that started at start: cpu holds the CPU
// clock read at every slice boundary, and op i completed at at[i] with
// latency lat[i]. Ops completing after the last boundary are left out.
func (s *segment) addWindows(start time.Time, cpu []time.Duration, at []time.Time, lat []float64) {
	n := len(cpu) - 1
	if n < 3 {
		return // too few slices for a median; the whole window is used
	}
	s.windows = make([]window, n)
	for k := range s.windows {
		s.windows[k].cpu = cpu[k+1] - cpu[k]
	}
	for i, t := range at {
		if k := int(t.Sub(start) / windowWidth); k >= 0 && k < n {
			w := &s.windows[k]
			w.ops++
			w.lat = append(w.lat, lat[i])
		}
	}
}

// cpuSampler reads a CPU clock at every slice boundary of a segment.
type cpuSampler struct {
	reads []time.Duration
	err   error
	done  chan struct{}
}

// sampleCPU reads the clock now and at start + k·windowWidth for every
// whole slice of d; wait returns the reads.
func sampleCPU(start time.Time, d time.Duration, read func() (time.Duration, error)) *cpuSampler {
	n := int(d / windowWidth)
	s := &cpuSampler{reads: make([]time.Duration, n+1), done: make(chan struct{})}
	s.reads[0], s.err = read()
	go func() {
		defer close(s.done)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * windowWidth)))
			c, err := read()
			if err != nil && s.err == nil {
				s.err = err
			}
			s.reads[k] = c
		}
	}()
	return s
}

func (s *cpuSampler) wait() ([]time.Duration, error) {
	<-s.done
	return s.reads, s.err
}

// check books one checked operation; a false ok counts it failed.
func (s *segment) check(ok bool, format string, args ...any) {
	s.attempted++
	if !ok {
		s.failed++
		s.note(format, args...)
	}
}

// note keeps a failed check's description.
func (s *segment) note(format string, args ...any) {
	if len(s.checks) < 10 {
		s.checks = append(s.checks, fmt.Sprintf(format, args...))
	} else {
		s.moreChecks++
	}
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// splitmix derives independent 64-bit seeds from the workload seed.
func splitmix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	d, _ := readSelfCPU() // getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	return d
}

func readSelfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// selfPeakRSSMB is this process's peak resident set, in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// procCPU reads a child's user plus system CPU from /proc, in clock ticks
// of 10 ms (USER_HZ is 100 on every Linux ABI Go supports).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSSMB reads a child's peak resident set (VmHWM), in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the ID of the enclosing span, 0 for a
// root. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a fixed in-memory buffer, safe for concurrent
// recording; spans beyond its capacity are counted, not kept.
type tracer struct {
	epoch   time.Time
	next    atomic.Int64
	buf     []span
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, capacity)}
}

// add records a finished span and returns its ID (0 when dropped or when
// t is nil, the untraced case).
func (t *tracer) add(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	if int(id) > len(t.buf) {
		t.dropped.Add(1)
		return 0
	}
	t.buf[id-1] = span{Name: name, ID: id, Parent: parent, Op: op,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	return id
}

func (t *tracer) spans() []span {
	return t.buf[:min(int(t.next.Load()), len(t.buf))]
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans() {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if d := t.dropped.Load(); d > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", d)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// killer runs the registered cleanups once, on normal exit or on a
// signal, so no child process outlives the benchmark.
type killer struct {
	mu  sync.Mutex
	fns map[int]func()
	n   int
}

func (k *killer) add(fn func()) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.fns == nil {
		k.fns = map[int]func(){}
	}
	k.n++
	k.fns[k.n] = fn
	return k.n
}

func (k *killer) remove(id int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.fns, id)
}

func (k *killer) all() {
	k.mu.Lock()
	fns := k.fns
	k.fns = nil
	k.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}
