package main

import (
	"fmt"
	"math"
	"time"

	"finitelb"
	"finitelb/internal/chaos"
	"finitelb/internal/sim"
	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

// simCell is one seeded sim.Run configuration, sized to about 50 ms so
// each cell runs about 80 times in a 20 s window. The five cells cover the
// simulator's event-loop routes: the hand-specialised default loop (twice,
// at the smallest and the paper's largest setting), the typed loop with
// the minindex.Seq JSQ index, the typed loop with work-aware LWL under
// heavy-tailed service, and the interface loop that churn runs take.
type simCell struct {
	name string
	p    sqd.Params
	opts sim.Options // Jobs set; Seed set per run
}

// simJobs is how many jobs one run of c simulates, warm-up included.
func (c simCell) simJobs() int64 { return c.opts.Jobs + c.opts.Jobs/10 }

// churnSpec crashes two servers and restores them over the churn cell's
// run (220k jobs at 40 a time unit span about 5500 time units); servers
// are resolved from the workload seed.
const churnSpec = "crash@500,crash@1500,restore@2500,restore@3500"

func simCells(seed uint64) ([]simCell, error) {
	pareto, err := workload.ParseService("pareto:1.5")
	if err != nil {
		return nil, err
	}
	churn, err := workload.ParseChurn(churnSpec)
	if err != nil {
		return nil, err
	}
	events, err := chaos.Resolve(churn, splitmix(seed, 6), 50)
	if err != nil {
		return nil, err
	}
	return []simCell{
		{"sqd2-n10", sqd.Params{N: 10, D: 2, Rho: 0.9}, sim.Options{Jobs: 250_000}},
		{"sqd50-n250", sqd.Params{N: 250, D: 50, Rho: 0.95}, sim.Options{Jobs: 40_000}},
		{"jsq-n1000", sqd.Params{N: 1000, D: 2, Rho: 0.9}, sim.Options{Jobs: 60_000, Policy: workload.JSQ{}}},
		{"lwl-pareto-n250", sqd.Params{N: 250, D: 2, Rho: 0.9}, sim.Options{Jobs: 100_000, Policy: workload.LWL{}, Service: pareto}},
		{"churn-n50", sqd.Params{N: 50, D: 2, Rho: 0.8}, sim.Options{Jobs: 200_000, Churn: &workload.Churn{Events: events}}},
	}, nil
}

// simSweep runs every cell once per sweep, sweep after sweep.
type simSweep struct {
	cells []simCell
	// lower is the QBD lower bound on sqd2-n10's mean delay (T=3); its
	// upper bound is unstable at this (N, rho, T), so only this side is
	// checked.
	lower float64
	// asym is SQ(2)'s N→∞ mean delay at rho 0.9, above which JSQ at
	// N=1000 must not land.
	asym float64
}

// setup builds the cells, solves the check bounds, and runs each cell
// once at a twentieth of its size.
func (s *simSweep) setup(e *env) error {
	cells, err := simCells(e.seed)
	if err != nil {
		return err
	}
	s.cells = cells
	sys, err := finitelb.NewSystem(10, 2, 0.9)
	if err != nil {
		return err
	}
	lo, err := sys.LowerBound(3)
	if err != nil {
		return err
	}
	s.lower = lo.MeanDelay
	s.asym = finitelb.AsymptoticDelay(2, 0.9)
	for i, c := range s.cells {
		o := c.opts
		o.Jobs /= 20
		o.Seed = splitmix(e.seed, 900+uint64(i))
		if _, err := sim.Run(c.p, o); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.name, err)
		}
	}
	return nil
}

func (s *simSweep) teardown() {}

func (s *simSweep) cellSeed(e *env, sweep, cell int) uint64 {
	return splitmix(e.seed, 1000+uint64(sweep)*8+uint64(cell))
}

func (s *simSweep) measure(e *env, d time.Duration, tr *tracer) (*segment, error) {
	seg := &segment{op: "simulated job", latOp: "cell run", clients: 1, info: map[string]any{}}
	cpu0 := selfCPU()
	start := time.Now()
	var first sim.Result
	seg.cells = make([]cellRuns, len(s.cells))
	for i, c := range s.cells {
		seg.cells[i] = cellRuns{ops: c.simJobs()}
	}
	sweeps := 0
	for ; sweeps == 0 || time.Since(start) < d; sweeps++ {
		t0 := time.Now()
		means := map[string]float64{}
		var cellSpans [8][2]time.Time
		for i, c := range s.cells {
			o := c.opts
			o.Seed = s.cellSeed(e, sweeps, i)
			c0, cpu0 := time.Now(), selfCPU()
			res, err := sim.Run(c.p, o)
			c1 := time.Now()
			seg.cells[i].add(c1.Sub(c0), selfCPU()-cpu0)
			cellSpans[i] = [2]time.Time{c0, c1}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			if sweeps == 0 && i == 0 {
				first = res
			}
			seg.ops += c.simJobs()
			means[c.name] = res.MeanDelay
			seg.check(res.Jobs == o.Jobs && !math.IsNaN(res.MeanDelay) && res.MeanDelay > 0.5,
				"%s: %d jobs measured (want %d), mean delay %v", c.name, res.Jobs, o.Jobs, res.MeanDelay)
			if c.name == "sqd2-n10" && res.MeanDelay < s.lower-4*res.HalfWidth {
				seg.note("sqd2-n10: mean delay %v ± %v below the QBD lower bound %v", res.MeanDelay, res.HalfWidth, s.lower)
				seg.failed++
			}
		}
		t1 := time.Now()
		seg.lat = append(seg.lat, float64(t1.Sub(t0))/1e3)
		if jsq := means["jsq-n1000"]; jsq > means["sqd2-n10"] || jsq > s.asym {
			seg.note("jsq-n1000 mean delay %v above SQ(2)'s (%v at N=10, %v as N→∞)", jsq, means["sqd2-n10"], s.asym)
			seg.failed++
		}
		if tr != nil {
			root := tr.add("sweep", 0, int64(sweeps+1), t0, t1)
			for i, c := range s.cells {
				tr.add("sim.Run/"+c.name, root, int64(sweeps+1), cellSpans[i][0], cellSpans[i][1])
			}
		}
	}
	seg.elapsed = time.Since(start)
	seg.cpu = selfCPU() - cpu0
	seg.rssMB = selfPeakRSSMB()
	seg.info["sweeps"] = sweeps
	seg.info["cells"] = len(s.cells)

	// The same seed must give the same result, bit for bit.
	o := s.cells[0].opts
	o.Seed = s.cellSeed(e, 0, 0)
	again, err := sim.Run(s.cells[0].p, o)
	if err != nil {
		return nil, err
	}
	seg.check(again == first, "%s rerun with the same seed differs: %+v vs %+v", s.cells[0].name, again, first)
	return seg, nil
}

// layers reports each cell's simulated cost per job from its spans.
func (s *simSweep) layers(e *env, seg *segment, tr *tracer, r *result) error {
	for _, c := range s.cells {
		d, n := tr.total("sim.Run/" + c.name)
		if n == 0 {
			return fmt.Errorf("no spans for %s", c.name)
		}
		r.layer("sim."+c.name+".ns_per_job", "ns", float64(d)/float64(int64(n)*c.simJobs()), n)
	}
	return nil
}

// unattributed is sweep time outside the sim.Run calls (the benchmark's
// own checks and bookkeeping), per sweep.
func (s *simSweep) unattributed(seg *segment, tr *tracer, r *result) float64 {
	total, n := tr.total("sweep")
	for _, c := range s.cells {
		d, _ := tr.total("sim.Run/" + c.name)
		total -= d
	}
	return float64(total) / 1e3 / float64(max(n, 1))
}
