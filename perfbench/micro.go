package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"finitelb/internal/frand"
	"finitelb/internal/mat"
	"finitelb/internal/minindex"
	"finitelb/internal/stats"
	"finitelb/internal/workload"
)

// sink keeps measured results live so the compiler cannot drop the calls.
var sink float64

// microRounds is how many timed rounds each replay runs; the metric is
// their median.
const microRounds = 5

// microLayers replays the simulator's and the recorder's building blocks
// at the sweep cells' sizes: the exponential draw, the sketch and stream
// adds, the JSQ index at N=1000, and the SQ(2) pick at N=10.
func microLayers(e *env, r *result) error {
	tr := newTracer(64)
	timeOp := func(name string, ops int, round func()) {
		var ts []float64
		for i := 0; i < microRounds; i++ {
			t0 := time.Now()
			round()
			t1 := time.Now()
			tr.add(name, 0, int64(i+1), t0, t1)
			ts = append(ts, float64(t1.Sub(t0))/float64(ops))
		}
		r.layer(name, "ns", quantile(ts, 0.5), microRounds)
	}

	fr := frand.New(splitmix(e.seed, 20), 0x5bd1e995)
	const draws = 4_000_000
	timeOp("frand.exp_ns", draws, func() {
		s := 0.0
		for i := 0; i < draws; i++ {
			s += fr.ExpFloat64()
		}
		sink += s
	})

	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = 1 + 3*fr.ExpFloat64() // sojourn-like values, in service times
	}
	timeOp("stats.sketch_add_ns", 2*len(xs), func() {
		sk := stats.NewSketch(stats.DefaultAlpha, stats.DefaultSketchBudget)
		for k := 0; k < 2; k++ {
			for _, x := range xs {
				sk.Add(x)
			}
		}
		sink += float64(sk.N())
	})
	timeOp("stats.stream_add_ns", 2*len(xs), func() {
		st := stats.NewSketchStream(5000, stats.DefaultAlpha, stats.DefaultSketchBudget)
		for k := 0; k < 2; k++ {
			for i := 0; i < len(xs); i += 256 {
				st.AddBatch(xs[i : i+256])
			}
		}
		sink += float64(st.N())
	})

	const seqN, seqOps = 1000, 2_000_000
	seq := minindex.NewSeq(seqN)
	rng := rand.New(frand.New(splitmix(e.seed, 21), 0))
	idx := make([]int, seqOps)
	keys := make([]float64, seqOps)
	for i := range idx {
		idx[i] = rng.IntN(seqN)
		keys[i] = float64(rng.IntN(4))
	}
	timeOp("minindex.seq_ns", seqOps, func() {
		s := 0
		for i := 0; i < seqOps; i++ {
			seq.Update(idx[i], keys[i])
			s += seq.Argmin(rng)
		}
		sink += float64(s)
	})

	picker, err := workload.SQD{D: 2}.NewPicker(10)
	if err != nil {
		return fmt.Errorf("SQ(2) picker: %w", err)
	}
	q := lens{1, 0, 2, 1, 3, 0, 1, 2, 0, 1}
	const picks = 4_000_000
	timeOp("workload.pick_ns", picks, func() {
		s := 0
		for i := 0; i < picks; i++ {
			s += picker.Pick(rng, q)
		}
		sink += float64(s)
	})
	return nil
}

// lens is a fixed queue-length view for the picker replay.
type lens []int

func (l lens) N() int        { return len(l) }
func (l lens) Len(i int) int { return l[i] }

// randDense is an n×n matrix of uniform entries.
func randDense(rng *rand.Rand, n int) *mat.Dense {
	m := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.Float64())
		}
	}
	return m
}
