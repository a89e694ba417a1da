package sim

import (
	"math"
	"strings"
	"testing"

	"finitelb/internal/sqd"
	"finitelb/internal/trace"
	"finitelb/internal/workload"
)

func churnOf(events ...workload.ChurnEvent) *workload.Churn {
	return &workload.Churn{Events: events}
}

func TestChurnValidation(t *testing.T) {
	p := sqd.Params{N: 4, D: 2, Rho: 0.5}
	for _, c := range []struct {
		name string
		ch   *workload.Churn
		want string
	}{
		{"unresolved server", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: -1}), "no server"},
		{"out of range", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: 4}), "targets server"},
		{"stall is live-only", churnOf(workload.ChurnEvent{Kind: workload.ChurnStall, T: 1, Server: 0, Dur: 5}), "live-only"},
		{"pause is live-only", churnOf(workload.ChurnEvent{Kind: workload.ChurnPause, T: 1, Server: -1}), "live-only"},
		{"double down", churnOf(
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: 0},
			workload.ChurnEvent{Kind: workload.ChurnLeave, T: 2, Server: 0}), "already down"},
		{"restore while up", churnOf(workload.ChurnEvent{Kind: workload.ChurnRestore, T: 1, Server: 2}), "already up"},
		{"all down", churnOf(
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: 0},
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 2, Server: 1},
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 3, Server: 2},
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 4, Server: 3}), "last live server"},
		{"negative time", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: -1, Server: 0}), "finite T"},
		{"NaN time", churnOf(
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: math.NaN(), Server: 0},
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 5, Server: 1}), "finite T"},
		{"infinite time", churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: math.Inf(1), Server: 0}), "finite T"},
		{"negative slow factor", churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 1, Server: 0, Factor: -1}), "slow factor"},
		{"zero slow factor", churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 1, Server: 0}), "slow factor"},
		{"NaN slow factor", churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 1, Server: 0, Factor: math.NaN()}), "slow factor"},
		{"infinite slow factor", churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 1, Server: 0, Factor: math.Inf(1)}), "slow factor"},
		{"out of order", churnOf(
			workload.ChurnEvent{Kind: workload.ChurnCrash, T: 5, Server: 0},
			workload.ChurnEvent{Kind: workload.ChurnRestore, T: 2, Server: 0}), "time order"},
	} {
		_, err := Run(p, Options{Jobs: 10, Churn: c.ch})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// Churn and tracing are mutually exclusive.
	_, err := Run(p, Options{Jobs: 10,
		Churn: churnOf(workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1, Server: 0}),
		Trace: trace.New(trace.Config{Sample: 1, Cap: 64})})
	if err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Errorf("churn+trace: err = %v, want tracing rejection", err)
	}
}

func TestChurnDeterminism(t *testing.T) {
	p := sqd.Params{N: 4, D: 2, Rho: 0.7}
	opts := Options{Jobs: 30_000, Seed: 42, Churn: churnOf(
		workload.ChurnEvent{Kind: workload.ChurnCrash, T: 500, Server: 1},
		workload.ChurnEvent{Kind: workload.ChurnSlow, T: 800, Server: 2, Factor: 3},
		workload.ChurnEvent{Kind: workload.ChurnRestore, T: 2000, Server: 1},
		workload.ChurnEvent{Kind: workload.ChurnSlow, T: 2500, Server: 2, Factor: 1},
		workload.ChurnEvent{Kind: workload.ChurnLeave, T: 4000, Server: 0},
	)}
	a, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, same schedule, different results:\n%+v\n%+v", a, b)
	}
	c, err := Run(p, Options{Jobs: opts.Jobs, Seed: 43, Churn: opts.Churn})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical results")
	}
}

// TestChurnNeverFiringBitIdentical pins that configuring churn costs
// nothing but the picker selection: an event beyond the measured horizon
// routes dispatch through the workload picker yet never fires, and the
// result must be bit-equal to the churn-free run (the concrete and
// workload pickers are pinned draw-identical by
// TestTypedLoopMatchesInterfaceLoop).
func TestChurnNeverFiringBitIdentical(t *testing.T) {
	p := sqd.Params{N: 6, D: 2, Rho: 0.8}
	base, err := Run(p, Options{Jobs: 20_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	churned, err := Run(p, Options{Jobs: 20_000, Seed: 9, Churn: churnOf(
		workload.ChurnEvent{Kind: workload.ChurnCrash, T: 1e18, Server: 0})})
	if err != nil {
		t.Fatal(err)
	}
	if base != churned {
		t.Errorf("never-firing churn changed the run:\nbase    %+v\nchurned %+v", base, churned)
	}
}

// TestChurnCrashMatchesDegradedFarm is the simulator twin of the live
// chaos calibration: crash k of N at t=0 with the offered rate fixed at
// ρ·N, and the run must reproduce the (N−k, ρ·N/(N−k)) system — same
// aggregate rate, SQ(d) over the survivors — within statistical error.
func TestChurnCrashMatchesDegradedFarm(t *testing.T) {
	const jobs = 200_000
	got, err := Run(sqd.Params{N: 4, D: 2, Rho: 0.45}, Options{Jobs: jobs, Seed: 7, Churn: churnOf(
		workload.ChurnEvent{Kind: workload.ChurnCrash, T: 0, Server: 1},
		workload.ChurnEvent{Kind: workload.ChurnCrash, T: 0, Server: 3},
	)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(sqd.Params{N: 2, D: 2, Rho: 0.9}, Options{Jobs: jobs, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tol := 6*(got.HalfWidth+want.HalfWidth) + 0.1
	t.Logf("crashed N=4→2: %.4f ± %.4f; direct N=2 ρ=0.9: %.4f ± %.4f (tol %.3f)",
		got.MeanDelay, got.HalfWidth, want.MeanDelay, want.HalfWidth, tol)
	if d := got.MeanDelay - want.MeanDelay; d < -tol || d > tol {
		t.Errorf("crashed-farm mean %.4f vs degraded-farm mean %.4f: outside tolerance %.3f",
			got.MeanDelay, want.MeanDelay, tol)
	}
}

// TestChurnSlowRaisesDelay sanity-checks the slow injector: degrading
// one of two servers 4× must visibly raise the mean sojourn.
func TestChurnSlowRaisesDelay(t *testing.T) {
	p := sqd.Params{N: 2, D: 2, Rho: 0.5}
	base, err := Run(p, Options{Jobs: 60_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := Run(p, Options{Jobs: 60_000, Seed: 3, Churn: churnOf(
		workload.ChurnEvent{Kind: workload.ChurnSlow, T: 0, Server: 0, Factor: 4})})
	if err != nil {
		t.Fatal(err)
	}
	if !(slowed.MeanDelay > base.MeanDelay+3*base.HalfWidth) {
		t.Errorf("4× slow on one of two servers did not raise mean delay: %.4f vs %.4f",
			slowed.MeanDelay, base.MeanDelay)
	}
}

// TestSvcTimeDividesThenSlows pins the order of the two service-time
// scalings: x/speed·slow and x·slow/speed differ in the last bit for
// about a third of all draws, too little to move a Result but enough to
// break draw-for-draw replay of a slowed heterogeneous farm.
func TestSvcTimeDividesThenSlows(t *testing.T) {
	st := &loopState{speeds: []float64{3, 1}, slow: []float64{1.7, 1}}
	differ := 0
	for i := 1; i < 1000; i++ {
		x := float64(i) * 0.0123456789
		if got, want := st.svcTime(0, x), x/3*1.7; got != want {
			t.Fatalf("svcTime(%v) = %v, want %v", x, got, want)
		}
		if x/3*1.7 != x*1.7/3 {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no draw tells the two orders apart; the test pins nothing")
	}
}
