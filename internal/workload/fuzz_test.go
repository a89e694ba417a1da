package workload

import (
	"math"
	"math/rand/v2"
	"testing"
)

// fuzzQueues is a fixed farm view for exercising pickers.
type fuzzQueues struct{ lens []int }

func (q fuzzQueues) N() int        { return len(q.lens) }
func (q fuzzQueues) Len(i int) int { return q.lens[i] }

// FuzzParse drives the three spec parsers plus ParseSpeeds with arbitrary
// strings: parsing must never panic or hang, and whatever it accepts must
// be immediately usable — sources emit finite non-negative interarrivals,
// services sample finite positive times with E[S²] ≥ 1 (Jensen, unit
// mean), pickers stay in range. Seed corpus in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add("poisson", "exponential", "sqd:2", "1,1,1,1")
	f.Add("deterministic", "det", "jsq", "2x4")
	f.Add("erlang:3", "erlang:k=4", "jiq", "1x2,4x2")
	f.Add("hyperexp:cv2=9", "pareto:alpha=1.5,h=100", "round-robin", "0.5,0.5,2,2")
	f.Add("h2:4", "pareto:2.5", "random", "")
	f.Add("erlang:-1", "pareto:alpha=0", "sqd:d=0", "0")
	f.Add("erlang:99999999999", "pareto:alpha=1", "sq", "1x99999999999")
	f.Add(":::", "=,=", "sqd:d=x", "x1")
	f.Fuzz(func(t *testing.T, arrival, service, policy, speeds string) {
		rng := rand.New(rand.NewPCG(1, 2))
		if a, err := ParseArrival(arrival); err == nil && a != nil {
			src, err := a.NewSource(2.0)
			if err != nil {
				t.Fatalf("ParseArrival(%q) accepted a process NewSource rejects: %v", arrival, err)
			}
			for i := 0; i < 8; i++ {
				if gap := src.Next(rng); !(gap >= 0) || math.IsInf(gap, 1) {
					t.Fatalf("arrival %q: interarrival %v", arrival, gap)
				}
			}
		}
		if s, err := ParseService(service); err == nil && s != nil {
			if err := s.Validate(); err != nil {
				t.Fatalf("ParseService(%q) returned invalid law: %v", service, err)
			}
			if m2 := s.Moment2(); !(m2 >= 1) || math.IsInf(m2, 1) {
				t.Fatalf("service %q: E[S²] = %v < 1 for a unit-mean law", service, m2)
			}
			for i := 0; i < 8; i++ {
				if x := s.Sample(rng); !(x > 0) || math.IsInf(x, 1) {
					t.Fatalf("service %q: sample %v", service, x)
				}
			}
		}
		if p, err := ParsePolicy(policy); err == nil && p != nil {
			if sq, ok := p.(SQD); ok && sq.D == 0 {
				p = SQD{D: 2} // "sqd" defers D to the caller; pick one
			}
			q := fuzzQueues{lens: []int{3, 0, 1, 2}}
			if picker, err := p.NewPicker(q.N()); err == nil {
				for i := 0; i < 8; i++ {
					if id := picker.Pick(rng, q); id < 0 || id >= q.N() {
						t.Fatalf("policy %q picked server %d of %d", policy, id, q.N())
					}
				}
			}
		}
		if sp, err := ParseSpeeds(speeds, 4); err == nil && sp != nil {
			if len(sp) != 4 {
				t.Fatalf("ParseSpeeds(%q, 4) returned %d entries", speeds, len(sp))
			}
			for _, s := range sp {
				if !(s > 0) {
					t.Fatalf("ParseSpeeds(%q) accepted non-positive speed %v", speeds, s)
				}
			}
		}
	})
}

// FuzzParseChurn drives the churn-schedule parser with arbitrary specs:
// it must never panic, every accepted event must carry a finite time
// ≥ 0 (and, on slow events, a finite factor > 0; on stall events a
// finite duration > 0), and the canonical String() rendering must
// re-parse to exactly the same events. Seed corpus in
// testdata/fuzz/FuzzParseChurn, built from the grammar examples.
func FuzzParseChurn(f *testing.F) {
	f.Add("churn:crash@t=500,restore@t=900")
	f.Add("crash@500@s=2,slow@t=300@s=1@f=4")
	f.Add("join@900@s=3,slow@t=100@s=1@f=4,stall@200@d=50,crash@0")
	f.Add("leave@1,pause@2,resume@3")
	f.Add("crash@inf,slow@5@s=1@f=inf,crash@t=nan")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChurn(spec)
		if err != nil || c == nil {
			return
		}
		for _, ev := range c.Events {
			if !(ev.T >= 0) || math.IsInf(ev.T, 1) {
				t.Fatalf("ParseChurn(%q) accepted time %v", spec, ev.T)
			}
			if ev.Kind == ChurnSlow && (!(ev.Factor > 0) || math.IsInf(ev.Factor, 1)) {
				t.Fatalf("ParseChurn(%q) accepted slow factor %v", spec, ev.Factor)
			}
			if ev.Kind == ChurnStall && (!(ev.Dur > 0) || math.IsInf(ev.Dur, 1)) {
				t.Fatalf("ParseChurn(%q) accepted stall duration %v", spec, ev.Dur)
			}
		}
		again, err := ParseChurn(c.String())
		if err != nil {
			t.Fatalf("ParseChurn(%q).String() = %q does not re-parse: %v", spec, c.String(), err)
		}
		if again == nil || len(again.Events) != len(c.Events) {
			t.Fatalf("ParseChurn(%q): re-parse of %q changed the event count", spec, c.String())
		}
		for i := range c.Events {
			if again.Events[i] != c.Events[i] {
				t.Fatalf("ParseChurn(%q): event %d re-parsed as %+v, want %+v", spec, i, again.Events[i], c.Events[i])
			}
		}
	})
}
