package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"finitelb"
	"finitelb/internal/markov"
	"finitelb/internal/qbd"
	"finitelb/internal/sqd"
	"finitelb/internal/statespace"
)

// qbdCell is one bracket solve: SQ(2) with N servers at utilization rho,
// truncation threshold T. Every cell here is stable at its T.
type qbdCell struct {
	n   int
	rho float64
	t   int
}

func (c qbdCell) String() string { return fmt.Sprintf("N=%d rho=%g T=%d", c.n, c.rho, c.t) }

// block is the cell's QBD block size C(N+T-1, T).
func (c qbdCell) block() int { return int(statespace.BinomialInt(c.n+c.t-1, c.t)) }

// The two regimes: small blocks (56 and 126 states) and a large block
// (210 states), where the logarithmic reduction's dense linear algebra
// takes most of the time. The large cell takes about 0.9 s, so it runs
// about a dozen times in a 20 s window; a 330-state cell (3.5 s) would
// run five times, too few for its fastest run to settle on a shared host.
var (
	qbdCells = []qbdCell{
		{6, 0.8, 3}, {6, 0.9, 4}, // small: 56 and 126 states
		{7, 0.85, 4}, // large: 210 states
	}
	// qbdReps is how often each cell runs per cycle, so the cheap cells
	// get as many timed runs as the large one.
	qbdReps  = []int{4, 4, 2}
	qbdSmall = qbdCell{6, 0.9, 4}
	qbdLarge = qbdCell{7, 0.85, 4}
	// qbdCheck is small enough for markov.SolveExact, whose exact mean
	// the bracket must contain.
	qbdCheck = qbdCell{3, 0.8, 3}
)

// qbdBracket makes the calls cmd/lbd's startup predictor makes, per cell:
// System.DelayBounds(T), then System.DelayDistributionBracket(T).
type qbdBracket struct {
	check    finitelb.Bounds // qbdCheck's bracket, solved at set-up
	checkErr string          // a failed set-up check, reported with the window
}

// bracket solves one cell and checks lower ≤ upper for the mean and p99;
// bad describes a failed check.
func bracket(c qbdCell) (b finitelb.Bounds, bad string, err error) {
	sys, err := finitelb.NewSystem(c.n, 2, c.rho)
	if err != nil {
		return b, "", err
	}
	if b, err = sys.DelayBounds(c.t); err != nil {
		return b, "", fmt.Errorf("%v: %w", c, err)
	}
	br, err := sys.DelayDistributionBracket(c.t)
	if err != nil {
		return b, "", fmt.Errorf("%v: %w", c, err)
	}
	lo99, hi99 := br.Quantile(0.99)
	switch {
	case !(b.Lower.MeanDelay <= b.Upper.MeanDelay):
		bad = fmt.Sprintf("%v: mean bracket [%v, %v] inverted", c, b.Lower.MeanDelay, b.Upper.MeanDelay)
	case !(lo99 <= hi99*(1+1e-3)):
		// The distributional bracket may cross by under 0.1% at small T.
		bad = fmt.Sprintf("%v: p99 bracket [%v, %v] inverted", c, lo99, hi99)
	}
	return b, bad, nil
}

// setup solves the check cell and one small cell as a warm-up.
func (q *qbdBracket) setup(e *env) error {
	var err error
	if q.check, q.checkErr, err = bracket(qbdCheck); err != nil {
		return err
	}
	_, _, err = bracket(qbdCells[0])
	return err
}

func (q *qbdBracket) teardown() {}

// measure solves whole cycles of the cells (each qbdReps times), in an
// order drawn from the seed, until d has passed.
func (q *qbdBracket) measure(e *env, d time.Duration, tr *tracer) (*segment, error) {
	seg := &segment{op: "bracket cell", latOp: "bracket cell", clients: 1, info: map[string]any{}}
	seg.check(q.checkErr == "", "%s", q.checkErr)
	rng := rand.New(rand.NewPCG(splitmix(e.seed, 7), 0))
	cpu0 := selfCPU()
	start := time.Now()
	seg.cells = make([]cellRuns, len(qbdCells))
	for i := range seg.cells {
		seg.cells[i] = cellRuns{ops: 1}
	}
	cycles := 0
	for ; cycles == 0 || time.Since(start) < d; cycles++ {
		for _, i := range rng.Perm(len(qbdCells)) {
			c := qbdCells[i]
			for rep := 0; rep < qbdReps[i]; rep++ {
				t0, cpuCell := time.Now(), selfCPU()
				_, bad, err := bracket(c)
				t1 := time.Now()
				seg.cells[i].add(t1.Sub(t0), selfCPU()-cpuCell)
				if err != nil {
					return nil, err
				}
				seg.check(bad == "", "%s", bad)
				seg.lat = append(seg.lat, float64(t1.Sub(t0))/1e3)
				seg.ops++
				regime := "small"
				if c.block() > qbdSmall.block() {
					regime = "large"
				}
				tr.add("qbd.bracket/"+regime, 0, seg.ops, t0, t1)
			}
		}
	}
	seg.elapsed = time.Since(start)
	seg.cpu = selfCPU() - cpu0
	seg.rssMB = selfPeakRSSMB()
	seg.info["cycles"] = cycles

	// The check cell's bracket must contain the exact chain's mean. The
	// Gauss–Seidel solve is memory-bound and swings with the host, so it
	// runs after the window rather than in set-up.
	exact, err := markov.SolveExact(sqd.Params{N: qbdCheck.n, D: 2, Rho: qbdCheck.rho}, markov.ExactOptions{})
	if err != nil {
		return nil, err
	}
	lo, hi := q.check.Lower.MeanDelay, q.check.Upper.MeanDelay
	seg.check(lo <= exact.MeanDelay && exact.MeanDelay <= hi,
		"%v: exact mean %v outside the bracket [%v, %v]", qbdCheck, exact.MeanDelay, lo, hi)
	return seg, nil
}

// layers replays the bracket's internal stages on one cell per regime.
// The public calls cannot be split from outside, so each stage is timed
// through its own internal/qbd entry point on the upper-bound model,
// the side that runs the logarithmic reduction.
func (q *qbdBracket) layers(e *env, seg *segment, tr *tracer, r *result) error {
	for _, reg := range []struct {
		name string
		cell qbdCell
		reps int
	}{{"small", qbdSmall, 5}, {"large", qbdLarge, 1}} {
		stages := map[string][]float64{}
		iters := 0
		for rep := 0; rep < reg.reps; rep++ {
			c := reg.cell
			model := &sqd.UpperBound{P: sqd.BoundParams{Params: sqd.Params{N: c.n, D: 2, Rho: c.rho}, T: c.t}}
			timed := func(stage string, f func() error) error {
				t0 := time.Now()
				err := f()
				t1 := time.Now()
				tr.add("qbd.replay."+stage+"/"+reg.name, 0, int64(rep+1), t0, t1)
				stages[stage] = append(stages[stage], float64(t1.Sub(t0))/1e6)
				return err
			}
			var b *qbd.Blocks
			var sol *qbd.Solution
			err := timed("blocks", func() (err error) { b, err = qbd.NewBlocks(model); return err })
			if err == nil {
				err = timed("logred", func() (err error) { _, iters, err = qbd.LogReduction(b.A0, b.A1, b.A2, 1e-12); return err })
			}
			if err == nil {
				err = timed("solve", func() (err error) { sol, err = qbd.Solve(model, qbd.Options{}); return err })
			}
			if err == nil {
				err = timed("join", func() error { _, err := sol.JoinDistribution(); return err })
			}
			if err == nil {
				err = timed("bracket", func() error {
					_, bad, err := bracket(c)
					if bad != "" {
						r.fail("%s", bad)
					}
					return err
				})
			}
			if err != nil {
				return fmt.Errorf("%s regime %v: %w", reg.name, reg.cell, err)
			}
		}
		for _, st := range []string{"blocks", "logred", "solve", "join", "bracket"} {
			r.layer("qbd."+reg.name+"."+st+"_ms", "ms", quantile(stages[st], 0.5), reg.reps)
		}
		r.layer("qbd."+reg.name+".logred_iters", "count", float64(iters), 1)
	}
	r.layer("mat.mul_gflops", "GFLOP/s", mulGflops(e, qbdLarge.block(), tr), 5)
	return nil
}

// unattributed is window time outside the cell spans (the cycle loop's
// own bookkeeping), per cell.
func (q *qbdBracket) unattributed(seg *segment, tr *tracer, r *result) float64 {
	var covered time.Duration
	for _, reg := range []string{"small", "large"} {
		d, _ := tr.total("qbd.bracket/" + reg)
		covered += d
	}
	return (seg.elapsed.Seconds()*1e6 - float64(covered)/1e3) / float64(max(seg.ops, 1))
}

// mulGflops times Dense.MulTo on two n×n matrices (median of 5) and
// returns the computed 2n³ flops per second, in GFLOP/s.
func mulGflops(e *env, n int, tr *tracer) float64 {
	rng := rand.New(rand.NewPCG(splitmix(e.seed, 8), 0))
	a, b, dst := randDense(rng, n), randDense(rng, n), randDense(rng, n)
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		a.MulTo(dst, b)
		t1 := time.Now()
		tr.add("mat.MulTo", 0, int64(i+1), t0, t1)
		ts = append(ts, t1.Sub(t0).Seconds())
	}
	sink += dst.At(n-1, n-1)
	return 2 * math.Pow(float64(n), 3) / quantile(ts, 0.5) / 1e9
}
