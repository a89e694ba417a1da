package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"finitelb/internal/lb"
	"finitelb/internal/sim"
	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

// The live-open farm: SQ(2) over 10 servers with a 2 ms unit of work,
// fed Poisson arrivals and exponential work at utilization rho.
const (
	liveN           = 10
	liveMeanService = 2 * time.Millisecond
	// liveWarmJobs evenly spaced unit jobs warm the farm up before timing.
	liveWarmJobs = 250
)

// liveOpen is an in-process open loop: one generator goroutine releases
// each job at its due time on a goroutine of its own that calls lb.Do.
// Latency is timed from the due time, so generator lateness counts.
type liveOpen struct {
	rho      float64
	farm     *lb.LB
	accepted int64 // jobs the farm accepted, warm-up included
	segments uint64
	// idealP50ms is the simulator's ideal sojourn median, set by layers.
	idealP50ms float64
}

// jobRec is one job's timeline.
type jobRec struct {
	due, submit, ret time.Time
	done             lb.Done
	err              error
}

func (l *liveOpen) tag() string { return fmt.Sprintf("rho%02.0f", l.rho*100) }

func (l *liveOpen) rate() float64 { return l.rho * liveN / liveMeanService.Seconds() }

func (l *liveOpen) setup(e *env) error {
	farm, err := lb.New(lb.Config{N: liveN, Policy: workload.SQD{D: 2},
		MeanService: liveMeanService, Seed: splitmix(e.seed, 3)})
	if err != nil {
		return err
	}
	l.farm, l.accepted = farm, 0
	offs := make([]time.Duration, liveWarmJobs)
	works := make([]float64, liveWarmJobs)
	for i := range offs {
		offs[i] = time.Duration(float64(i) / l.rate() * 1e9)
		works[i] = 1
	}
	for _, j := range l.drive(time.Now(), offs, works, nil) {
		if j.err != nil || j.done.Dropped {
			return fmt.Errorf("warm-up job failed: %v (dropped %v)", j.err, j.done.Dropped)
		}
	}
	return nil
}

func (l *liveOpen) teardown() {
	if l.farm == nil {
		return
	}
	_, _ = l.farm.Shutdown(context.Background()) // every job has returned; nothing is left to drain
	l.farm = nil
}

// drive releases job i at start+offs[i] with work works[i] and waits for
// every job to return.
func (l *liveOpen) drive(start time.Time, offs []time.Duration, works []float64, tr *tracer) []jobRec {
	recs := make([]jobRec, len(offs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := range offs {
		due := start.Add(offs[i])
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := &recs[i]
			j.due = due
			j.submit = time.Now()
			j.done, j.err = l.farm.Do(context.Background(), works[i])
			j.ret = time.Now()
			if j.err == nil {
				mu.Lock()
				l.accepted++
				mu.Unlock()
			}
			if tr != nil {
				op := int64(i + 1)
				root := tr.add("job", 0, op, j.due, j.ret)
				tr.add("gen.late", root, op, j.due, j.submit)
				tr.add("lb.Do", root, op, j.submit, j.ret)
			}
		}()
	}
	wg.Wait()
	return recs
}

func (l *liveOpen) measure(e *env, d time.Duration, tr *tracer) (*segment, error) {
	l.segments++
	rng := rand.New(rand.NewPCG(splitmix(e.seed, 4), splitmix(e.seed, 100+l.segments)))
	var offs []time.Duration
	var works []float64
	for t := rng.ExpFloat64() / l.rate(); t < d.Seconds(); t += rng.ExpFloat64() / l.rate() {
		offs = append(offs, time.Duration(t*1e9))
		works = append(works, rng.ExpFloat64())
	}
	seg := &segment{op: "job", latOp: "job", clients: 1, offered: l.rate(),
		info: map[string]any{"n": liveN, "policy": "sqd:2", "rho": l.rho, "mean_service_ms": 2, "jobs_offered": len(offs)}}
	start := time.Now()
	cpuAt := sampleCPU(start, d, readSelfCPU)
	recs := l.drive(start, offs, works, tr)
	seg.elapsed = time.Since(start)
	cpu, err := cpuAt.wait()
	if err != nil {
		return nil, err
	}
	seg.cpu = selfCPU() - cpu[0]
	seg.rssMB = selfPeakRSSMB()
	var ends []time.Time
	for i := range recs {
		j := &recs[i]
		seg.check(j.err == nil && !j.done.Dropped, "job %d: err %v, dropped %v", i, j.err, j.done.Dropped)
		if j.err == nil && !j.done.Dropped {
			seg.lat = append(seg.lat, float64(j.ret.Sub(j.due))/1e3)
			ends = append(ends, j.ret)
		}
	}
	seg.ops = int64(len(seg.lat))
	seg.addWindows(start, cpu, ends, seg.lat)
	o := l.farm.Recorder().Outcomes()
	if o.Completed+o.Dropped != l.accepted {
		seg.note("lb outcomes: completed %d + dropped %d != accepted %d", o.Completed, o.Dropped, l.accepted)
		seg.failed++
	}
	seg.data = recs
	return seg, nil
}

// layers compares the farm's own sojourns with the simulator's ideal
// quantiles at the same (N, d, rho) and splits each job's latency into
// generator lateness, sojourn and the return path.
func (l *liveOpen) layers(e *env, seg *segment, tr *tracer, r *result) error {
	recs := seg.data.([]jobRec)
	var late, soj, ret []float64
	for i := range recs {
		j := &recs[i]
		if j.err != nil || j.done.Dropped {
			continue
		}
		late = append(late, float64(j.submit.Sub(j.due))/1e3)
		soj = append(soj, float64(j.done.Sojourn)/1e6)
		ret = append(ret, float64(j.ret.Sub(j.submit)-j.done.Sojourn)/1e3)
	}
	ideal, err := sim.Run(sqd.Params{N: liveN, D: 2, Rho: l.rho}, sim.Options{Jobs: 1_000_000, Seed: splitmix(e.seed, 5)})
	if err != nil {
		return err
	}
	unit := float64(liveMeanService) / 1e6 // ms per model time unit
	t := l.tag()
	n := len(soj)
	r.layer("lb.sojourn_gap_ms.p50."+t, "ms", quantile(soj, 0.5)-ideal.P50*unit, n)
	r.layer("lb.sojourn_gap_ms.p99."+t, "ms", quantile(soj, 0.99)-ideal.P99*unit, n)
	r.layer("lb.return_us.p50."+t, "us", quantile(ret, 0.5), n)
	r.layer("lb.realized_service_ratio."+t, "ratio", l.farm.Summary().MeanService, n)
	r.layer("gen.late_us.p50."+t, "us", quantile(late, 0.5), n)
	r.layer("gen.late_us.p99."+t, "us", quantile(late, 0.99), n)
	l.idealP50ms = ideal.P50 * unit

	// The farm's standing cost: goroutines and heap right after lb.New.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()
	farm, err := lb.New(lb.Config{N: liveN, Policy: workload.SQD{D: 2}, MeanService: liveMeanService})
	if err != nil {
		return err
	}
	g1 := runtime.NumGoroutine()
	runtime.ReadMemStats(&m1)
	if _, err := farm.Shutdown(context.Background()); err != nil {
		return err
	}
	r.layer("lb.goroutines", "count", float64(g1-g0), 1)
	r.layer("lb.heap_mb", "MB", float64(m1.HeapAlloc-m0.HeapAlloc)/(1<<20), 1)
	return nil
}

// unattributed is the traced latency p50 minus its parts: generator
// lateness, the ideal sojourn, the live gap over it, and the return path.
func (l *liveOpen) unattributed(seg *segment, tr *tracer, r *result) float64 {
	t := l.tag()
	return seg.p50() - r.perLayer["gen.late_us.p50."+t].Value - 1e3*l.idealP50ms -
		1e3*r.perLayer["lb.sojourn_gap_ms.p50."+t].Value - r.perLayer["lb.return_us.p50."+t].Value
}
