package finitelb

// One benchmark per evaluation artifact of the paper (the experiment
// inventory is described in doc.go and PAPER.md). Each figure bench runs a
// budget-reduced version of the corresponding panel — once on a single
// worker (the serial baseline) and once on the engine's default GOMAXPROCS
// pool — and logs the series it produced; the full-fidelity sweeps live in
// cmd/figures. Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"

	"finitelb/internal/figures"
	"finitelb/internal/markov"
	"finitelb/internal/qbd"
	"finitelb/internal/sim"
	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

// figWorkerCounts names the two pool sizes every figure panel is
// benchmarked at: the serial baseline and the engine default (GOMAXPROCS).
var figWorkerCounts = []struct {
	name    string
	workers int
}{
	{"serial", 1},
	{"parallel", 0},
}

// benchFig9 runs a reduced Figure 9 panel: relative error of the
// asymptotic delay vs simulation across N, one series per d — at both pool
// sizes. Cells are seeded from their coordinates, so the series are
// identical across worker counts (asserted in internal/figures tests).
func benchFig9(b *testing.B, rho float64) {
	b.Helper()
	cfg := figures.Fig9Config{
		Rho: rho,
		Ds:  []int{2, 10, 50},
		Ns:  []int{10, 50, 250},
	}
	for _, wc := range figWorkerCounts {
		b.Run(wc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chart, err := figures.Fig9(cfg, figures.SimBudget{Jobs: 200_000, Seed: 1, Workers: wc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, s := range chart.Series {
						b.Logf("ρ=%g %s: N=%v → err%%=%v", rho, s.Name, s.X, s.Y)
					}
				}
			}
		})
	}
}

func BenchmarkFig9a(b *testing.B) { benchFig9(b, 0.75) }
func BenchmarkFig9b(b *testing.B) { benchFig9(b, 0.95) }

// benchFig10 runs a reduced Figure 10 panel: upper bound, simulation,
// improved lower bound and asymptotic delay across utilizations — at both
// pool sizes.
func benchFig10(b *testing.B, n, t int) {
	b.Helper()
	cfg := figures.Fig10Config{N: n, D: 2, T: t, Rhos: []float64{0.3, 0.5, 0.7, 0.9}}
	for _, wc := range figWorkerCounts {
		b.Run(wc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, _, err := figures.Fig10(cfg, figures.SimBudget{Jobs: 200_000, Seed: 1, Workers: wc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, p := range points {
						b.Logf("N=%d T=%d ρ=%.2f: LB=%.4f sim=%.4f UB=%.4f asym=%.4f",
							n, t, p.Rho, p.Lower, p.Simulated, p.Upper, p.Asymptotic)
					}
					if bad := figures.CheckFig10Invariants(points); len(bad) > 0 {
						b.Fatalf("invariant violations: %v", bad)
					}
				}
			}
		})
	}
}

func BenchmarkFig10a(b *testing.B) { benchFig10(b, 3, 2) }
func BenchmarkFig10b(b *testing.B) { benchFig10(b, 3, 3) }
func BenchmarkFig10c(b *testing.B) { benchFig10(b, 6, 3) }
func BenchmarkFig10d(b *testing.B) { benchFig10(b, 12, 3) }

// BenchmarkLogReduction isolates the §IV-A workhorse on the Fig 10(c)
// blocks (N=6, T=3, block size 56) and asserts the paper's ≤6-iteration
// claim at a moderately loaded point.
func BenchmarkLogReduction(b *testing.B) {
	model := &sqd.LowerBound{P: sqd.BoundParams{Params: sqd.Params{N: 6, D: 2, Rho: 0.75}, T: 3}}
	blocks, err := qbd.NewBlocks(model)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, iters, err := qbd.LogReduction(blocks.A0, blocks.A1, blocks.A2, 1e-12)
		if err != nil {
			b.Fatal(err)
		}
		if iters > 6 {
			b.Fatalf("logarithmic reduction took %d iterations, paper reports ≤ 6", iters)
		}
	}
}

// BenchmarkUpperBoundVsT is the §V accuracy/complexity ablation: the same
// upper bound at increasing T, whose block size C(N+T−1, T) — and solve
// cost — grows quickly while the bound tightens.
func BenchmarkUpperBoundVsT(b *testing.B) {
	for _, t := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("T=%d", t), func(b *testing.B) {
			model := &sqd.UpperBound{P: sqd.BoundParams{Params: sqd.Params{N: 3, D: 2, Rho: 0.8}, T: t}}
			var last float64
			for i := 0; i < b.N; i++ {
				sol, err := qbd.Solve(model, qbd.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = sol.MeanDelay
			}
			b.ReportMetric(last, "delay")
		})
	}
}

// BenchmarkLowerBoundPaths is the Theorem 1 vs Theorem 3 ablation: the
// improved lower bound skips the logarithmic reduction and rate matrix
// entirely.
func BenchmarkLowerBoundPaths(b *testing.B) {
	model := &sqd.LowerBound{P: sqd.BoundParams{Params: sqd.Params{N: 6, D: 2, Rho: 0.9}, T: 3}}
	b.Run("matrix-geometric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qbd.Solve(model, qbd.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("improved-theorem3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qbd.Solve(model, qbd.Options{ImprovedLB: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulator measures the discrete-event engine's throughput on
// the paper's largest simulation setting (N=250, d=50).
func BenchmarkSimulator(b *testing.B) {
	for _, cfg := range []sqd.Params{
		{N: 3, D: 2, Rho: 0.9},
		{N: 50, D: 10, Rho: 0.95},
		{N: 250, D: 50, Rho: 0.95},
	} {
		b.Run(fmt.Sprintf("N=%d_d=%d", cfg.N, cfg.D), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg, sim.Options{Jobs: 100_000, Seed: uint64(i) + 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSimulatorPolicies measures what users get from each dispatch
// policy at the same load.
func BenchmarkSimulatorPolicies(b *testing.B) {
	p := sqd.Params{N: 50, D: 10, Rho: 0.9}
	for _, pol := range []workload.Policy{
		workload.SQD{D: p.D},
		workload.JSQ{},
		workload.JIQ{},
		workload.RoundRobin{},
		workload.Random{},
	} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(p, sim.Options{Jobs: 100_000, Seed: uint64(i) + 1, Policy: pol}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSimulatorWorkloads measures the event loop across the
// arrival/service grid (policy fixed at the paper's SQ(d)).
func BenchmarkSimulatorWorkloads(b *testing.B) {
	p := sqd.Params{N: 50, D: 10, Rho: 0.9}
	pareto, err := workload.NewBoundedPareto(1.5, 1000)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		arrival workload.Arrival
		service workload.Service
	}{
		{"M/M-fast", workload.Poisson{}, workload.Exponential{}},
		{"D/Er4", workload.DeterministicArrivals{}, workload.ErlangService{K: 4}},
		{"H2/M", workload.HyperExp{CV2: 9}, workload.Exponential{}},
		{"M/Pareto", workload.Poisson{}, pareto},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := sim.Options{Jobs: 100_000, Seed: uint64(i) + 1, Arrival: cfg.arrival, Service: cfg.service}
				if _, err := sim.Run(p, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSimulatorReplications measures the wall-clock effect of
// splitting one simulation budget across concurrently executed
// replications (R=1 is the bit-exact legacy single stream).
func BenchmarkSimulatorReplications(b *testing.B) {
	p := sqd.Params{N: 50, D: 10, Rho: 0.9}
	for _, r := range []int{1, 4} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(p, sim.Options{Jobs: 800_000, Seed: 7, Replications: r}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactSolve measures the brute-force stationary solver used as
// ground truth (not part of the paper's method, but of its validation).
func BenchmarkExactSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := markov.SolveExact(sqd.Params{N: 3, D: 2, Rho: 0.8}, markov.ExactOptions{QueueCap: 25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundsAPI measures the public one-call entry point end to end.
func BenchmarkBoundsAPI(b *testing.B) {
	sys, err := NewSystem(6, 2, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.DelayBounds(4); err != nil {
			b.Fatal(err)
		}
	}
}
