package sim

import (
	"math"
	"math/rand/v2"

	"finitelb/internal/frand"
	"finitelb/internal/minindex"
	"finitelb/internal/sqd"
	"finitelb/internal/stats"
	"finitelb/internal/workload"
)

// loopState is the mutable per-stream state of the event loop. It
// persists across run calls, so a stream can be driven in chunks (the
// allocation-regression tests lean on that) with results bit-identical
// to one uninterrupted run. It is also the dispatcher's farm view: it
// implements workload.Queues, WorkQueues, ArgminQueues and
// ArgminWorkQueues for the workload pickers the loop calls through
// ifacePick.
type loopState struct {
	servers []server
	// qlen mirrors each server's queue length in a dense array: pickers
	// and the loop's own length checks read 4-byte entries off a few cache
	// lines instead of chasing into the 80-byte server structs, which at
	// N ≥ 1000 turned every SQ(d) probe into an L2 miss. The loop updates
	// it next to every push/pop; servers stay authoritative for contents.
	qlen   []int32
	speeds []float64
	fr     *frand.RNG
	// std wraps the same generator for code that only speaks *rand.Rand
	// (the minindex tie-break descents and the workload adapters); draws
	// interleave on one stream.
	std *rand.Rand
	trk *tracker
	res *stats.Stream
	// tr is the optional flight-recorder adapter (nil = tracing off).
	// Every hook below sits behind a nil check and consumes no rng
	// draws, so trace-off runs are bit-identical to pre-trace goldens
	// and trace-on runs stay seed-deterministic.
	tr *simTracer

	// Hierarchical min-indexes (nil below minindex.Threshold, or when the
	// policy doesn't dispatch on a global argmin): lenTree tracks queue
	// lengths for JSQ, workTree tracks backlog for LWL, so a pick is
	// O(log N) instead of the O(N) scan that dominates large-N sweeps.
	lenTree  *minindex.Seq
	workTree *minindex.Seq

	// Failure-domain state, allocated only for churn runs (nil on every
	// churn-free path, where each costs one nil check off the hot path).
	// churn is the remaining schedule from index ci; down marks
	// departed/crashed servers, downCnt counts them, live is the compact
	// live-server list the degraded-mode SQ(d) samples from, and slow
	// holds per-server service-duration multipliers (1 = none).
	churn   []workload.ChurnEvent
	ci      int
	down    []bool
	downCnt int
	live    []int
	slow    []float64

	nextArrival float64
	departed    int64
	warmup      int64
	measured    int64
	now         float64 // current arrival instant, read by work-aware picks
	maxQueue    int
	workAware   bool
	// unit marks a homogeneous unit-speed fleet: x/1.0 ≡ x in IEEE
	// arithmetic, so the loop skips the requirement/speed division — a
	// dependent FDIV feeding the tracker key — without changing a bit.
	unit    bool
	started bool

	// buf holds measured sojourns until they are flushed to res in one
	// AddBatch call — same accumulator arithmetic in the same order, minus
	// the per-event call chain into three heap objects.
	buf  [256]float64
	bufn int
}

// flush drains the sojourn buffer into the stream.
//
//finitelb:hotpath
func (st *loopState) flush() {
	if st.bufn > 0 {
		st.res.AddBatch(st.buf[:st.bufn])
		st.bufn = 0
	}
}

// svcTime converts requirement x into server i's service duration: the
// speed division first, then any churn slow factor.
//
//finitelb:hotpath
func (st *loopState) svcTime(i int, x float64) float64 {
	if !st.unit {
		x /= st.speeds[i]
	}
	if st.slow != nil {
		x *= st.slow[i]
	}
	return x
}

// workAt is server i's time-to-drain at the current arrival instant: the
// in-service remainder (completion − now, already in time units) plus
// the queued not-yet-started requirements divided by the server's speed.
//
//finitelb:hotpath
func (st *loopState) workAt(i int) float64 {
	if st.qlen[i] == 0 {
		return 0
	}
	s := &st.servers[i]
	rem := s.completion - st.now
	if rem < 0 {
		rem = 0
	}
	return s.pending/st.speeds[i] + rem
}

// isDown reports whether server i is out of the farm (always false on
// churn-free runs).
//
//finitelb:hotpath
func (st *loopState) isDown(i int) bool { return st.down != nil && st.down[i] }

// noteLen re-keys server i in the length index. A down server stays
// masked at +Inf, even when its draining in-service job departs.
//
//finitelb:hotpath
func (st *loopState) noteLen(i int) {
	k := float64(st.qlen[i])
	if st.isDown(i) {
		k = math.Inf(1)
	}
	st.lenTree.Update(i, k)
}

// noteWork re-keys server i in the work index. The key is
// pending/speed + completion — the absolute-time form of workAt: among
// busy servers "− now" is a common shift that argmin ignores, and an
// idle server keys at 0, below every busy server's completion ≥ now ≥ 0.
// A down server stays masked at +Inf.
//
//finitelb:hotpath
func (st *loopState) noteWork(i int) {
	switch {
	case st.isDown(i):
		st.workTree.Update(i, math.Inf(1))
	case st.qlen[i] == 0:
		st.workTree.Update(i, 0)
	default:
		s := &st.servers[i]
		st.workTree.Update(i, s.pending/st.speeds[i]+s.completion)
	}
}

// N implements workload.Queues.
func (st *loopState) N() int { return len(st.qlen) }

// Len reports a down server as worst-possible, so length-scanning
// pickers route around it; ifacePick's next-alive probe is then only a
// backstop for policies that don't read lengths at all.
func (st *loopState) Len(i int) int {
	if st.isDown(i) {
		return math.MaxInt32
	}
	return int(st.qlen[i])
}

// Work implements workload.WorkQueues; a down server reads +Inf.
func (st *loopState) Work(i int) float64 {
	if st.isDown(i) {
		return math.Inf(1)
	}
	return st.workAt(i)
}

// ArgminLen implements workload.ArgminQueues when the length index is on.
func (st *loopState) ArgminLen(rng *rand.Rand) (int, bool) {
	if st.lenTree == nil {
		return 0, false
	}
	return st.lenTree.Argmin(rng), true
}

// ArgminWork implements workload.ArgminWorkQueues when the work index is on.
func (st *loopState) ArgminWork(rng *rand.Rand) (int, bool) {
	if st.workTree == nil {
		return 0, false
	}
	return st.workTree.Argmin(rng), true
}

// typedRunner binds one stenciled loop instantiation to its state.
type typedRunner struct {
	st  *loopState
	run func(jobs int64) // continues the stream until `jobs` measured
}

// newTypedRunner resolves a validated wiring onto the event loop:
// concrete samplers for the built-in arrival and service laws (stenciled
// pairwise by the generic loop) and concrete pickers for the built-in
// policies. A user-supplied implementation of a workload interface — and
// every policy of a churn run — resolves onto an adapter that calls the
// interface on st.std instead, at one virtual hop per draw or pick.
func newTypedRunner(p sqd.Params, w wiring, warmup int64, res *stats.Stream, seed uint64) *typedRunner {
	st := newLoopState(p, w, warmup, res, seed)
	var pk picker
	if st.churn == nil {
		pk = st.newPicker(p, w)
	}
	if pk == nil {
		pk = newIfacePick(p, w)
	}
	return &typedRunner{st: st, run: bindArr(st, w, pk)}
}

// newLoopState builds the per-stream state: server rings, the completion
// tracker, the min-index the policy dispatches on, and for churn runs the
// failure-domain state.
func newLoopState(p sqd.Params, w wiring, warmup int64, res *stats.Stream, seed uint64) *loopState {
	st := &loopState{
		speeds:    w.speeds,
		fr:        frand.New(seed, 0x5bd1e995),
		res:       res,
		warmup:    warmup,
		workAware: w.workAware,
	}
	st.std = rand.New(st.fr)
	st.servers = make([]server, p.N)
	for i := range st.servers {
		st.servers[i].init(st.workAware)
	}
	st.qlen = make([]int32, p.N)
	_, heavy := w.service.(workload.BoundedPareto)
	st.trk = newTrackerFor(p.N, heavy)
	st.unit = true
	for _, sp := range w.speeds {
		if sp != 1 {
			st.unit = false
			break
		}
	}
	if p.N >= minindex.Threshold {
		// Sub-linear dispatch: global-argmin policies get a maintained
		// min-index; below the threshold (and for O(d) policies) the
		// reference scan wins. Selection changes the rng draw sequence,
		// not the policy's law — results stay seed-deterministic.
		switch w.policy.(type) {
		case workload.JSQ:
			st.lenTree = minindex.NewSeq(p.N)
		case workload.LWL:
			st.workTree = minindex.NewSeq(p.N)
		}
	}
	if len(w.churn) > 0 {
		st.churn = w.churn
		st.down = make([]bool, p.N)
		st.slow = make([]float64, p.N)
		for i := range st.slow {
			st.slow[i] = 1
		}
		st.rebuildLive()
	}
	return st
}

// newPicker resolves a built-in policy to its concrete picker over the
// min-index newLoopState built for it, or returns nil for a
// user-supplied policy.
func (st *loopState) newPicker(p sqd.Params, w wiring) picker {
	switch pol := w.policy.(type) {
	case workload.SQD:
		perm := make([]int, p.N)
		for i := range perm {
			perm[i] = i
		}
		return &sqdPick{d: pol.D, perm: perm}
	case workload.JSQ:
		if st.lenTree != nil {
			return jsqTreePick{}
		}
		return jsqScanPick{}
	case workload.LWL:
		if st.workTree != nil {
			return lwlTreePick{}
		}
		return lwlScanPick{}
	case workload.JIQ:
		return jiqPick{}
	case workload.RoundRobin:
		return &rrPick{n: p.N}
	case workload.Random:
		return randPick{n: p.N}
	}
	return nil
}

// bindArr resolves the arrival law and forwards to the service-law
// resolution; together they pick the stenciled loop instantiation.
func bindArr(st *loopState, w wiring, pk picker) func(int64) {
	switch a := w.arrival.(type) {
	case workload.Poisson:
		return bindSvc(st, poissonArr{rate: w.rate}, w, pk)
	case workload.DeterministicArrivals:
		return bindSvc(st, constArr{gap: 1 / w.rate}, w, pk)
	case workload.ErlangArrivals:
		return bindSvc(st, erlangArr{k: a.K, phaseRate: float64(a.K) * w.rate}, w, pk)
	case workload.HyperExp:
		p1, l1, l2 := a.Phases(w.rate)
		return bindSvc(st, hyperArr{p: p1, l1: l1, l2: l2}, w, pk)
	}
	src, err := w.arrival.NewSource(w.rate)
	if err != nil {
		panic("sim: unresolved wiring: " + err.Error())
	}
	return bindSvc(st, ifaceArr{src: src, std: st.std}, w, pk)
}

func bindSvc[A arrSampler](st *loopState, arr A, w wiring, pk picker) func(int64) {
	switch s := w.service.(type) {
	case workload.Exponential:
		return bindLoop(st, arr, expSvc{}, pk)
	case workload.DeterministicService:
		return bindLoop(st, arr, detSvc{}, pk)
	case workload.ErlangService:
		return bindLoop(st, arr, erlangSvc{k: s.K, kf: float64(s.K)}, pk)
	case workload.BoundedPareto:
		return bindLoop(st, arr, paretoSvc{p: s}, pk)
	}
	return bindLoop(st, arr, ifaceSvc{svc: w.service, std: st.std}, pk)
}

func bindLoop[A arrSampler, S svcSampler](st *loopState, arr A, svc S, pk picker) func(int64) {
	return func(jobs int64) { runTyped(st, arr, svc, pk, jobs) }
}

// runTyped is the simulator's event loop, stenciled per (arrival,
// service) sampler pair so every draw is a direct call; the picker is
// one indirect call per arrival. Three event sources race: the next
// arrival, the tracker's earliest completion, and the next churn event,
// which wins ties with both (churnAt is +Inf on churn-free runs, so the
// churn check costs one compare). The per-event max-queue bookkeeping
// folds into the stream once per run call instead of per arrival.
// TestDefaultWorkloadBitIdentical pins the paper's wiring against the
// pre-workload goldens; TestWiringGoldens and TestChurnGoldens pin the
// whole built-in matrix and the churn matrix.
//
//finitelb:hotpath
func runTyped[A arrSampler, S svcSampler](st *loopState, arr A, svc S, pk picker, jobs int64) {
	servers := st.servers
	qlen := st.qlen
	fr := st.fr
	trk := st.trk
	res := st.res
	workAware := st.workAware
	// plain: service durations are the raw requirements (unit speeds, no
	// slow factors), so svcTime is skipped.
	plain := st.unit && st.slow == nil
	lenTree, workTree := st.lenTree, st.workTree
	tr := st.tr
	if !st.started {
		st.nextArrival = arr.next(fr)
		st.started = true
	}
	nextArrival := st.nextArrival
	departed := st.departed
	measured := st.measured
	maxQ := st.maxQueue
	churnAt := st.nextChurn()

	// The (min, argmin) pair is live across iterations and re-read only
	// after a tracker update: arrivals to busy servers — the bulk of all
	// events — leave the tracker untouched.
	minC, minI := trk.min()
	for measured < jobs {
		if churnAt <= minC && churnAt <= nextArrival {
			applyChurn(st, svc, pk)
			churnAt = st.nextChurn()
			minC, minI = trk.min()
			continue
		}
		if nextArrival <= minC {
			now := nextArrival
			nextArrival = now + arr.next(fr)
			var best int
			if workAware {
				// Work-aware dispatch: the requirement is drawn at arrival
				// so the picker can see the work it is placing.
				st.now = now
				req := svc.sample(fr)
				best = pk.pick(st)
				sv := &servers[best]
				sv.pushWork(now, req)
				l := qlen[best] + 1
				qlen[best] = l
				if l == 1 {
					x := req
					if !plain {
						x = st.svcTime(best, x)
					}
					sv.completion = now + x
					trk.update(best, sv.completion)
					minC, minI = trk.min()
				} else {
					sv.pending += req
				}
				if workTree != nil {
					st.noteWork(best)
				}
				if int(l) > maxQ {
					maxQ = int(l)
				}
				if tr != nil {
					tr.onArrival(now, best, int(l-1), lastTies(pk))
				}
			} else {
				// The tracker is authoritative for completion times on this
				// path (server.completion is neither read nor written): the
				// departure below reuses the root's key as `now`, so the
				// server line is only touched for the ring push/pop.
				best = pk.pick(st)
				servers[best].push(now)
				l := qlen[best] + 1
				qlen[best] = l
				if l == 1 {
					x := svc.sample(fr)
					if !plain {
						x = st.svcTime(best, x)
					}
					trk.update(best, now+x)
					minC, minI = trk.min()
				}
				if lenTree != nil {
					st.noteLen(best)
				}
				if int(l) > maxQ {
					maxQ = int(l)
				}
				if tr != nil {
					tr.onArrival(now, best, int(l-1), lastTies(pk))
				}
			}
			continue
		}
		sv := &servers[minI]
		now := minC
		arrivedAt := sv.pop()
		l := qlen[minI] - 1
		qlen[minI] = l
		if workAware {
			if l > 0 {
				req := sv.workFront()
				sv.pending -= req
				x := req
				if !plain {
					x = st.svcTime(minI, x)
				}
				sv.completion = now + x
			} else {
				sv.completion = math.Inf(1)
			}
			trk.update(minI, sv.completion)
			if workTree != nil {
				st.noteWork(minI)
			}
		} else {
			if l > 0 {
				x := svc.sample(fr)
				if !plain {
					x = st.svcTime(minI, x)
				}
				trk.update(minI, now+x)
			} else {
				trk.update(minI, math.Inf(1))
			}
			if lenTree != nil {
				st.noteLen(minI)
			}
		}
		if tr != nil {
			tr.onDeparture(now, minI)
		}
		minC, minI = trk.min()
		departed++
		if departed > st.warmup {
			st.buf[st.bufn] = now - arrivedAt
			st.bufn++
			if st.bufn == len(st.buf) {
				res.AddBatch(st.buf[:])
				st.bufn = 0
			}
			measured++
		}
	}

	st.nextArrival = nextArrival
	st.departed = departed
	st.measured = measured
	st.maxQueue = maxQ
	st.flush()
	res.ObserveQueue(maxQ)
}
