package sim

import (
	"fmt"
	"math"

	"finitelb/internal/workload"
)

// This file is the simulator's side of the failure domain: churn
// schedule validation and the event-loop hooks that apply membership
// changes on model time. The semantics deliberately mirror
// internal/lb's flag-based membership — crash loses in-service
// progress and redistributes the queue, leave drains gracefully, SQ(d)
// samples among survivors while servers are down — so a live chaos
// scenario replays here seed-deterministically (see Options.Churn).

// validateChurn checks a schedule against the farm size and returns a
// defensive copy, nil for no churn. Times must be finite and ≥ 0 and
// slow factors finite and > 0: a NaN time never fires (and blocks every
// later event), and a zero or infinite factor stops a server for good.
// Every event needs an explicit server (internal/chaos.Resolve assigns
// them deterministically); stall/pause/resume have wall-clock semantics
// with no model-time analogue and are rejected. Membership is tracked
// through the schedule so a run can never go all-down or double-fault.
func validateChurn(c *workload.Churn, n int) ([]workload.ChurnEvent, error) {
	if c == nil || len(c.Events) == 0 {
		return nil, nil
	}
	evs := make([]workload.ChurnEvent, len(c.Events))
	copy(evs, c.Events)
	down := make([]bool, n)
	alive := n
	last := math.Inf(-1)
	for k, ev := range evs {
		if !(ev.T >= 0) || math.IsInf(ev.T, 1) {
			return nil, fmt.Errorf("sim: churn event #%d (%v) has time %v, need a finite T ≥ 0", k, ev, ev.T)
		}
		if ev.Kind == workload.ChurnSlow && (!(ev.Factor > 0) || math.IsInf(ev.Factor, 1)) {
			return nil, fmt.Errorf("sim: churn event #%d (%v) has slow factor %v, need a finite factor > 0", k, ev, ev.Factor)
		}
		if ev.T < last {
			return nil, fmt.Errorf("sim: churn event #%d (%v) is out of time order", k, ev)
		}
		last = ev.T
		switch ev.Kind {
		case workload.ChurnStall, workload.ChurnPause, workload.ChurnResume:
			return nil, fmt.Errorf("sim: churn event %v is live-only (wall-clock semantics); the simulator rejects it", ev)
		}
		if ev.Server < 0 {
			return nil, fmt.Errorf("sim: churn event %v has no server; resolve the schedule with internal/chaos.Resolve first", ev)
		}
		if ev.Server >= n {
			return nil, fmt.Errorf("sim: churn event %v targets server %d, farm has %d", ev, ev.Server, n)
		}
		switch ev.Kind {
		case workload.ChurnCrash, workload.ChurnLeave:
			if down[ev.Server] {
				return nil, fmt.Errorf("sim: churn event %v targets a server that is already down", ev)
			}
			if alive == 1 {
				return nil, fmt.Errorf("sim: churn event %v would take down the last live server", ev)
			}
			down[ev.Server] = true
			alive--
		case workload.ChurnRestore:
			if !down[ev.Server] {
				return nil, fmt.Errorf("sim: churn event %v restores a server that is already up", ev)
			}
			down[ev.Server] = false
			alive++
		}
	}
	return evs, nil
}

// nextChurn is the time of the next scheduled churn event, +Inf once
// the schedule is exhausted (and always on churn-free runs).
//
//finitelb:hotpath
func (st *loopState) nextChurn() float64 {
	if st.ci < len(st.churn) {
		return st.churn[st.ci].T
	}
	return math.Inf(1)
}

// rebuildLive regenerates the compact live-server list after a
// membership change.
func (st *loopState) rebuildLive() {
	st.live = st.live[:0]
	for i, d := range st.down {
		if !d {
			st.live = append(st.live, i)
		}
	}
}

// nextAlive probes deterministically for the first live server after
// from — the backstop for policies whose pick doesn't read queue
// lengths (round-robin, random) and so can land on a down server
// despite the masked view.
func (st *loopState) nextAlive(from int) int {
	n := len(st.down)
	for k := 1; k <= n; k++ {
		if i := (from + k) % n; !st.down[i] {
			return i
		}
	}
	return from // unreachable: validation keeps ≥ 1 server live
}

// pickSQDLive is the degraded-mode SQ(d) pick, mirroring
// internal/lb.(*LB).pickSQDLive: d distinct samples by partial
// Fisher–Yates over the live-server list, least queue wins with
// uniform tie-breaking. Sampling from the survivors (rather than all N
// with dead entries masked) is what keeps SQ(d)'s law — and the QBD
// bracket solved at (alive, ρ·N/alive) — intact through churn.
func (st *loopState) pickSQDLive(d int) int {
	live := st.live
	m := len(live)
	if d > m {
		d = m
	}
	best, bestLen, ties := -1, int32(math.MaxInt32), 0
	for k := 0; k < d; k++ {
		j := k + st.std.IntN(m-k)
		live[k], live[j] = live[j], live[k]
		s := live[k]
		switch l := st.qlen[s]; {
		case l < bestLen:
			best, bestLen, ties = s, l, 1
		case l == bestLen:
			ties++
			if st.std.IntN(ties) == 0 {
				best = s
			}
		}
	}
	return best
}

// note re-keys server i in whichever min-index is active.
func (st *loopState) note(i int) {
	if st.lenTree != nil {
		st.noteLen(i)
	}
	if st.workTree != nil {
		st.noteWork(i)
	}
}

// applyChurn applies the next schedule event at model time ev.T. A churn
// run dispatches through ifacePick for the whole run, so the
// redistribution below routes orphans on the same picker state as the
// arrivals. Allocation here is fine — churn events are control-plane-rare
// next to the event loop's per-arrival work.
func applyChurn[S svcSampler](st *loopState, svc S, pk picker) {
	ev := st.churn[st.ci]
	st.ci++
	i := ev.Server
	switch ev.Kind {
	case workload.ChurnSlow:
		st.slow[i] = ev.Factor
		return
	case workload.ChurnRestore:
		st.down[i] = false
		st.downCnt--
		st.rebuildLive()
		st.note(i)
		return
	}

	// Crash or leave. Drain the queue into scratch first: the ring only
	// pops from the head, and a graceful leave keeps the in-service job
	// (scratch[0]) on the server.
	sv := &st.servers[i]
	type orphan struct{ arrived, req float64 }
	scratch := make([]orphan, 0, sv.length())
	for sv.length() > 0 {
		idx := sv.head & uint32(len(sv.arrivals)-1)
		o := orphan{arrived: sv.arrivals[idx]}
		if sv.work != nil {
			o.req = sv.work[idx]
		}
		sv.head++
		scratch = append(scratch, o)
	}
	sv.pending = 0
	st.qlen[i] = 0
	orphans := scratch
	if ev.Kind == workload.ChurnLeave && len(scratch) > 0 {
		// The in-service job completes in place; its tracker entry (and,
		// work-aware, its completion time) are already correct.
		if sv.work != nil {
			sv.pushWork(scratch[0].arrived, scratch[0].req)
		} else {
			sv.push(scratch[0].arrived)
		}
		st.qlen[i] = 1
		orphans = scratch[1:]
	} else {
		// Crash: in-service progress is lost; a re-executed job draws a
		// fresh requirement at its new service start (under a work-aware
		// policy the original requirement travels with the job).
		sv.completion = math.Inf(1)
		st.trk.update(i, math.Inf(1))
	}
	st.down[i] = true
	st.downCnt++
	st.rebuildLive()
	st.note(i) // masks the server out of the min-indexes

	// Redistribute the orphans through the dispatch policy at the event
	// instant, arrival stamps preserved — the lost time surfaces in the
	// measured sojourns, exactly as live redelivery does.
	st.now = ev.T
	for _, o := range orphans {
		best := pk.pick(st)
		tsv := &st.servers[best]
		if st.workAware {
			tsv.pushWork(o.arrived, o.req)
		} else {
			tsv.push(o.arrived)
		}
		l := st.qlen[best] + 1
		st.qlen[best] = l
		switch {
		case l > 1:
			if st.workAware {
				tsv.pending += o.req
			}
		case st.workAware:
			tsv.completion = ev.T + st.svcTime(best, o.req)
			st.trk.update(best, tsv.completion)
		default:
			st.trk.update(best, ev.T+st.svcTime(best, svc.sample(st.fr)))
		}
		st.note(best)
		st.res.ObserveQueue(int(l))
	}
}
