package sim

import (
	"math"

	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

// The event loop's pickers are concrete re-derivations of the
// internal/workload pickers, specialized to the simulator's own farm
// state: queue lengths and backlogs are read straight off the server
// slice (inlined), rng draws come from the concrete frand generator, and
// the indexed variants go straight to the min-trees without the
// ArgminQueues type-assertion detour. Each picker must reproduce its
// workload counterpart's rng consumption exactly — same draws, same
// order — which TestPickersMatchWorkload pins picker by picker and the
// loop equivalence tests pin end to end.
//
// pick is one indirect call per arrival (the pickers are held as this
// interface); everything inside is concrete, except in ifacePick, the
// adapter for user-supplied policies and churn runs.
type picker interface {
	pick(st *loopState) int
}

// tieReporter is implemented by pickers that can report how many
// candidates were tied at the minimum on their last pick; the trace
// hooks surface that in Span.Ties. Pickers without per-pick state (the
// stateless scan/tree/random variants) simply don't implement it.
type tieReporter interface{ lastTies() int }

// lastTies extracts the last pick's tie count, −1 when the picker
// doesn't report.
//
//finitelb:hotpath
func lastTies(pk picker) int {
	if t, ok := pk.(tieReporter); ok {
		return t.lastTies()
	}
	return -1
}

// sqdPick mirrors workload.SQD's picker: partial Fisher–Yates over a
// persistent permutation, reservoir tie-breaking.
type sqdPick struct {
	d    int
	perm []int
	ties int32 // candidates tied at the minimum on the last pick
}

func (pk *sqdPick) lastTies() int { return int(pk.ties) }

//finitelb:hotpath
func (pk *sqdPick) pick(st *loopState) int {
	fr := st.fr
	qlen := st.qlen
	perm := pk.perm
	n := len(perm)
	if pk.d == 2 {
		// The paper's d = 2, unrolled: the same draws as the general loop
		// below (no tie draw on the first candidate, one IntN(2) on an
		// exact tie).
		j := fr.IntN(n)
		perm[0], perm[j] = perm[j], perm[0]
		s0 := perm[0]
		j = 1 + fr.IntN(n-1)
		perm[1], perm[j] = perm[j], perm[1]
		s1 := perm[1]
		l0, l1 := qlen[s0], qlen[s1]
		pk.ties = 1
		if l0 == l1 {
			pk.ties = 2
			if fr.IntN(2) == 0 {
				return s1
			}
			return s0
		}
		if l1 < l0 {
			return s1
		}
		return s0
	}
	best, bestLen, ties := -1, int32(math.MaxInt32), int32(0)
	for k := 0; k < pk.d; k++ {
		j := k + fr.IntN(n-k)
		perm[k], perm[j] = perm[j], perm[k]
		s := perm[k]
		switch l := qlen[s]; {
		case l < bestLen:
			best, bestLen, ties = s, l, 1
		case l == bestLen:
			ties++
			if fr.IntN(int(ties)) == 0 {
				best = s
			}
		}
	}
	pk.ties = ties
	return best
}

// jsqScanPick mirrors workload.JSQ's reference scan: rotated origin,
// reservoir tie-breaking.
type jsqScanPick struct{}

//finitelb:hotpath
func (jsqScanPick) pick(st *loopState) int {
	fr := st.fr
	qlen := st.qlen
	n := len(qlen)
	start := fr.IntN(n)
	best, bestLen, ties := start, qlen[start], 1
	for k := 1; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		switch l := qlen[i]; {
		case l < bestLen:
			best, bestLen, ties = i, l, 1
		case l == bestLen:
			ties++
			if fr.IntN(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// jsqTreePick mirrors workload.JSQ through a maintained length index: the
// tree descent consumes the same tie-break draws the interface path does,
// through the std wrapper over the same generator.
type jsqTreePick struct{}

//finitelb:hotpath
func (jsqTreePick) pick(st *loopState) int { return st.lenTree.Argmin(st.std) }

// lwlScanPick mirrors workload.LWL's reference scan over time-to-drain.
type lwlScanPick struct{}

//finitelb:hotpath
func (lwlScanPick) pick(st *loopState) int {
	fr := st.fr
	n := len(st.qlen)
	start := fr.IntN(n)
	best, bestWork, ties := start, st.workAt(start), 1
	for k := 1; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		switch w := st.workAt(i); {
		case w < bestWork:
			best, bestWork, ties = i, w, 1
		case w == bestWork:
			ties++
			if fr.IntN(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// lwlTreePick mirrors workload.LWL through the maintained work index.
type lwlTreePick struct{}

//finitelb:hotpath
func (lwlTreePick) pick(st *loopState) int { return st.workTree.Argmin(st.std) }

// jiqPick mirrors workload.JIQ: reservoir over idle servers, uniform
// fallback.
type jiqPick struct{}

//finitelb:hotpath
func (jiqPick) pick(st *loopState) int {
	fr := st.fr
	qlen := st.qlen
	n := len(qlen)
	idle, count := -1, 0
	for i := 0; i < n; i++ {
		if qlen[i] == 0 {
			count++
			if fr.IntN(count) == 0 {
				idle = i
			}
		}
	}
	if count > 0 {
		return idle
	}
	return fr.IntN(n)
}

// rrPick mirrors workload.RoundRobin: a cursor, no draws.
type rrPick struct{ n, next int }

//finitelb:hotpath
func (pk *rrPick) pick(*loopState) int {
	i := pk.next
	pk.next++
	if pk.next == pk.n {
		pk.next = 0
	}
	return i
}

// randPick mirrors workload.Random: one uniform draw.
type randPick struct{ n int }

//finitelb:hotpath
func (pk randPick) pick(st *loopState) int { return st.fr.IntN(pk.n) }

// ifacePick dispatches through a workload.Picker over the loopState
// farm view, drawing on st.std. It serves user-supplied policies and
// every policy of a churn run: there the view reads down servers as
// MaxInt32 / +Inf, SQ(d) (sqdD > 0) samples among the survivors while
// any server is down, and a pick that still lands on a down server (a
// policy that ignores lengths) probes on to the next live one. On
// churn-free runs downCnt stays 0 and the workload picker runs alone.
type ifacePick struct {
	p    workload.Picker
	sqdD int
}

// newIfacePick instantiates the wiring's workload picker; resolve has
// already validated it.
func newIfacePick(p sqd.Params, w wiring) ifacePick {
	wp, err := w.policy.NewPicker(p.N)
	if err != nil {
		panic("sim: unresolved wiring: " + err.Error())
	}
	return ifacePick{p: wp, sqdD: w.sqdD}
}

//finitelb:hotpath
func (pk ifacePick) pick(st *loopState) int {
	if st.downCnt > 0 && pk.sqdD > 0 {
		return st.pickSQDLive(pk.sqdD)
	}
	best := pk.p.Pick(st.std, st)
	if st.downCnt > 0 && st.down[best] {
		best = st.nextAlive(best)
	}
	return best
}
