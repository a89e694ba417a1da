package sim

import (
	"fmt"
	"testing"

	"finitelb/internal/sqd"
	"finitelb/internal/workload"
)

// Captured goldens for the single event loop. Both tables were
// produced by the former workload-interface event loop (the reference
// every specialized loop was pinned against) immediately before the
// simulator's three loops were folded into one; the single loop must
// reproduce them bit for bit. They are a fence, not a snapshot to
// refresh: a diff here means the draw sequence or the arithmetic moved.

// goldenSizes straddle every structural boundary: linear tracker and
// scan pickers (6), tournament tracker and min-index pickers (100), and
// the calendar-queue tracker (600 ≥ calCutoff).
var goldenSizes = []int{6, 100, 600}

// goldenChurnPolicies is every built-in policy, keyed by its table name.
var goldenChurnPolicies = []struct {
	name string
	pol  workload.Policy
}{
	{"sqd", workload.SQD{}}, {"jsq", workload.JSQ{}}, {"lwl", workload.LWL{}},
	{"jiq", workload.JIQ{}}, {"rr", workload.RoundRobin{}}, {"random", workload.Random{}},
}

// goldenChurnSchedules returns the churn scenarios at farm size n, timed
// to fire inside a 6000-job run at ρ = 0.7. "leave" keeps a draining
// in-service job on a down server (the masking case for the min-index
// pickers at N = 100); "slow-het" slows speed-3 servers on a
// heterogeneous fleet (the rounding of the slow factor after the speed
// division is pinned per draw by TestSvcTimeDividesThenSlows).
func goldenChurnSchedules(n int) map[string][]workload.ChurnEvent {
	tA, tB := 300.0, 800.0
	if n >= 100 {
		tA, tB = 20, 50
	}
	return map[string][]workload.ChurnEvent{
		"crash": {{Kind: workload.ChurnCrash, T: tA, Server: 1}},
		"leave": {{Kind: workload.ChurnLeave, T: tA, Server: 2}},
		"slow": {
			{Kind: workload.ChurnSlow, T: tA, Server: 0, Factor: 3},
			{Kind: workload.ChurnSlow, T: tB, Server: 0, Factor: 1},
		},
		"slow-het": {
			{Kind: workload.ChurnSlow, T: tA, Server: 2, Factor: 1.7},
			{Kind: workload.ChurnSlow, T: tA, Server: 5, Factor: 0.3},
		},
		"restore": {
			{Kind: workload.ChurnCrash, T: tA, Server: 1},
			{Kind: workload.ChurnLeave, T: tA, Server: 3},
			{Kind: workload.ChurnRestore, T: tB, Server: 1},
			{Kind: workload.ChurnRestore, T: tB, Server: 3},
		},
	}
}

// hetSpeeds is the heterogeneous fleet the goldens use: speeds 1, 2, 3
// repeating.
func hetSpeeds(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1 + float64(i%3)
	}
	return s
}

// TestWiringGoldens runs every testWirings entry at every golden size
// through Run and requires the captured Result exactly.
func TestWiringGoldens(t *testing.T) {
	for name, tw := range testWirings(t) {
		for _, n := range goldenSizes {
			key := fmt.Sprintf("%s/N=%d", name, n)
			want, ok := wiringGoldens[key]
			if !ok {
				t.Fatalf("%s: no golden", key)
			}
			o := tw.opts
			o.Jobs, o.Seed = 4000, 77
			if tw.het {
				o.Speeds = hetSpeeds(n)
			}
			got, err := Run(sqd.Params{N: n, D: 2, Rho: 0.85}, o)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got != want {
				t.Errorf("%s: drifted from the captured golden:\ngot  %+v\nwant %+v", key, got, want)
			}
		}
	}
}

// TestChurnGoldens runs the churn matrix — every built-in policy × every
// scenario at N ∈ {6, 100} — and requires the captured Result
// exactly.
func TestChurnGoldens(t *testing.T) {
	for _, n := range []int{6, 100} {
		for sn, evs := range goldenChurnSchedules(n) {
			for _, pc := range goldenChurnPolicies {
				key := fmt.Sprintf("%s/%s/N=%d", pc.name, sn, n)
				want, ok := churnGoldens[key]
				if !ok {
					t.Fatalf("%s: no golden", key)
				}
				o := Options{Jobs: 6000, Seed: 5, Policy: pc.pol, Churn: &workload.Churn{Events: evs}}
				if sn == "slow-het" {
					o.Speeds = hetSpeeds(n)
				}
				got, err := Run(sqd.Params{N: n, D: 2, Rho: 0.7}, o)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got != want {
					t.Errorf("%s: drifted from the captured golden:\ngot  %+v\nwant %+v", key, got, want)
				}
			}
		}
	}

	// A churn event wins an exact tie with an arrival. Deterministic
	// arrivals at rate 0.8·5 = 4 land on exact multiples of 0.25, so the
	// slow at T = 10 coincides with arrival #40, which round-robin routes
	// to server 4: it must start that job already slowed.
	const key = "tie/rr-det/N=5"
	got, err := Run(sqd.Params{N: 5, D: 2, Rho: 0.8}, Options{Jobs: 2000, Seed: 5, Policy: workload.RoundRobin{},
		Arrival: workload.DeterministicArrivals{}, Service: workload.DeterministicService{}, Tail: TailHistogram,
		Churn: churnOf(workload.ChurnEvent{Kind: workload.ChurnSlow, T: 10, Server: 4, Factor: 2})})
	if err != nil {
		t.Fatal(err)
	}
	if want := churnGoldens[key]; got != want {
		t.Errorf("%s: drifted from the captured golden:\ngot  %+v\nwant %+v", key, got, want)
	}
}

var wiringGoldens = map[string]Result{
	"default/N=6":          {MeanDelay: 2.5779934933869604, MeanWait: 1.5779934933869604, HalfWidth: 0.15162164404357953, Jobs: 4000, MaxQueue: 10, P50: 2.1169470901567315, P95: 6.753181100290354, P99: 9.300092397207594, Overflow: 0},
	"default/N=100":        {MeanDelay: 1.949248870991723, MeanWait: 0.9492488709917231, HalfWidth: 0.05523809558957286, Jobs: 4000, MaxQueue: 5, P50: 1.5682572930148795, P95: 5.002829575110682, P99: 7.768043531562235, Overflow: 0},
	"default/N=600":        {MeanDelay: 1.4201951449061858, MeanWait: 0.4201951449061858, HalfWidth: 0.054788378003456, Jobs: 4000, MaxQueue: 4, P50: 1.1162263482279566, P95: 3.781021962321973, P99: 5.103896839254332, Overflow: 0},
	"det-erlang-jsq/N=6":   {MeanDelay: 1.1623619948091497, MeanWait: 0.1623619948091497, HalfWidth: 0.031031576957453, Jobs: 4000, MaxQueue: 2, P50: 1.0304040404040402, P95: 2.4350801357369876, P99: 3.421198745225559, Overflow: 0},
	"det-erlang-jsq/N=100": {MeanDelay: 0.9900912788264988, MeanWait: -0.009908721173501167, HalfWidth: 0.018621253110693205, Jobs: 4000, MaxQueue: 2, P50: 0.8780477199413352, P95: 2.1169470901567315, P99: 2.801021950445561, Overflow: 0},
	"det-erlang-jsq/N=600": {MeanDelay: 0.9942271563251582, MeanWait: -0.0057728436748417655, HalfWidth: 0.016770525725071667, Jobs: 4000, MaxQueue: 1, P50: 0.8957860577179277, P95: 2.0339376953853674, P99: 2.637897854603052, Overflow: 0},
	"erlang-det-jiq/N=6":   {MeanDelay: 1.336765650408927, MeanWait: 0.3367656504089269, HalfWidth: 0.03478897157349068, Jobs: 4000, MaxQueue: 6, P50: 0.9900000000000001, P95: 2.637897854603052, P99: 3.7061502402957958, Overflow: 0},
	"erlang-det-jiq/N=100": {MeanDelay: 1.000656038348488, MeanWait: 0.0006560383484879306, HalfWidth: 0.0007343751037751047, Jobs: 4000, MaxQueue: 2, P50: 0.9900000000000001, P95: 0.9900000000000001, P99: 1.01, Overflow: 0},
	"erlang-det-jiq/N=600": {MeanDelay: 1, MeanWait: 0, HalfWidth: 1.199823738744983e-17, Jobs: 4000, MaxQueue: 1, P50: 0.9900000000000001, P95: 1.0000000000000009, P99: 1.0000000000000009, Overflow: 0},
	"hyper-pareto/N=6":     {MeanDelay: 13.116054330723987, MeanWait: 12.116054330723987, HalfWidth: 1.5431089591650964, Jobs: 4000, MaxQueue: 125, P50: 4.178689443140948, P95: 57.40233635812428, P99: 122.7451605267971, Overflow: 0},
	"hyper-pareto/N=100":   {MeanDelay: 3.553989035100067, MeanWait: 2.553989035100067, HalfWidth: 0.20601083089291, Jobs: 4000, MaxQueue: 50, P50: 1.9541832518843243, P95: 11.822829145790845, P99: 21.116435486210428, Overflow: 0},
	"hyper-pareto/N=600":   {MeanDelay: 1.4085486569985606, MeanWait: 0.4085486569985606, HalfWidth: 0.06037025216628511, Jobs: 4000, MaxQueue: 14, P50: 0.9900000000000001, P95: 4.0148353330285715, P99: 6.3598937285614925, Overflow: 0},
	"lwl-exp-het/N=6":      {MeanDelay: 1.0797384699334578, MeanWait: 0.07973846993345779, HalfWidth: 0.09288498917605836, Jobs: 4000, MaxQueue: 14, P50: 0.8606606363781405, P95: 2.801021950445561, P99: 4.0959431175341985, Overflow: 0},
	"lwl-exp-het/N=100":    {MeanDelay: 0.5104281337002295, MeanWait: -0.48957186629977045, HalfWidth: 0.019027509581586822, Jobs: 4000, MaxQueue: 3, P50: 0.31660879951322046, P95: 1.632261263753166, P99: 3.0343189471832916, Overflow: 0},
	"lwl-exp-het/N=600":    {MeanDelay: 0.45383441262624186, MeanWait: -0.5461655873737581, HalfWidth: 0.01737674197228793, Jobs: 4000, MaxQueue: 1, P50: 0.2981703420251737, P95: 1.3909138792051368, P99: 2.386860727108532, Overflow: 0},
	"lwl-pareto/N=6":       {MeanDelay: 1.6945774203699528, MeanWait: 0.6945774203699528, HalfWidth: 0.1895814304276134, Jobs: 4000, MaxQueue: 13, P50: 1.01, P95: 5.002829575110682, P99: 7.924973703917026, Overflow: 0},
	"lwl-pareto/N=100":     {MeanDelay: 0.9158086549032467, MeanWait: -0.0841913450967533, HalfWidth: 0.04236398257651078, Jobs: 4000, MaxQueue: 2, P50: 0.5433126527193362, P95: 2.5856622535218032, P99: 6.3598937285614925, Overflow: 0},
	"lwl-pareto/N=600":     {MeanDelay: 0.7488453125481692, MeanWait: -0.2511546874518308, HalfWidth: 0.021303430931631152, Jobs: 4000, MaxQueue: 1, P50: 0.5325539863288543, P95: 1.87755612701875, P99: 3.7061502402957958, Overflow: 0},
	"rr/N=6":               {MeanDelay: 5.973413402615707, MeanWait: 4.973413402615707, HalfWidth: 0.29422183775704774, Jobs: 4000, MaxQueue: 24, P50: 4.0959431175341985, P95: 19.106877269946857, P99: 22.875222481776554, Overflow: 0},
	"rr/N=100":             {MeanDelay: 2.4938462587813044, MeanWait: 1.4938462587813044, HalfWidth: 0.0961373895229431, Jobs: 4000, MaxQueue: 14, P50: 1.8403767977708545, P95: 6.8896090013063205, P99: 11.134298906175687, Overflow: 0},
	"rr/N=600":             {MeanDelay: 1.3997036848404607, MeanWait: 0.3997036848404607, HalfWidth: 0.05540640904690729, Jobs: 4000, MaxQueue: 8, P50: 1.0941228561838388, P95: 3.8574062443890824, P99: 5.207005866309974, Overflow: 0},
	"sqd-het/N=6":          {MeanDelay: 1.865772067450515, MeanWait: 0.8657720674505149, HalfWidth: 0.1069987713695829, Jobs: 4000, MaxQueue: 11, P50: 1.1852523014097833, P95: 6.110510580691227, P99: 9.679649274963232, Overflow: 0},
	"sqd-het/N=100":        {MeanDelay: 1.4871283937907633, MeanWait: 0.48712839379076334, HalfWidth: 0.05981081337228956, Jobs: 4000, MaxQueue: 7, P50: 1.01, P95: 4.618181443065282, P99: 7.315653261164755, Overflow: 0},
	"sqd-het/N=600":        {MeanDelay: 0.759103714306629, MeanWait: -0.24089628569337096, HalfWidth: 0.03681341864890437, Jobs: 4000, MaxQueue: 5, P50: 0.5542886659055852, P95: 2.2033442777970422, P99: 3.2870472406583384, Overflow: 0},
}
var churnGoldens = map[string]Result{
	"sqd/crash/N=6":         {MeanDelay: 2.1931972764428727, MeanWait: 1.1931972764428727, HalfWidth: 0.13725302736575573, Jobs: 6000, MaxQueue: 8, P50: 1.665236238778482, P95: 5.989510371172589, P99: 8.415043540310165, Overflow: 0},
	"sqd/leave/N=6":         {MeanDelay: 2.2758372138296954, MeanWait: 1.2758372138296954, HalfWidth: 0.12240862015050064, Jobs: 6000, MaxQueue: 7, P50: 1.803933692864501, P95: 5.989510371172589, P99: 8.585044419912387, Overflow: 0},
	"sqd/restore/N=6":       {MeanDelay: 6.444768148214606, MeanWait: 5.444768148214606, HalfWidth: 1.0268357549363214, Jobs: 6000, MaxQueue: 28, P50: 2.5344610207787985, P95: 23.80880976804434, P99: 27.940046110299292, Overflow: 0},
	"sqd/slow/N=6":          {MeanDelay: 2.0850986646837897, MeanWait: 1.0850986646837897, HalfWidth: 0.146665939053474, Jobs: 6000, MaxQueue: 7, P50: 1.4476800818050808, P95: 6.110510580691227, P99: 11.134298906175687, Overflow: 0},
	"sqd/slow-het/N=6":      {MeanDelay: 1.2752886743401972, MeanWait: 0.2752886743401972, HalfWidth: 0.0868859931835089, Jobs: 6000, MaxQueue: 9, P50: 0.6906912739679658, P95: 4.437094042102034, P99: 7.924973703917026, Overflow: 0},
	"jsq/crash/N=6":         {MeanDelay: 2.142910875441438, MeanWait: 1.142910875441438, HalfWidth: 0.14417487798419434, Jobs: 6000, MaxQueue: 6, P50: 1.632261263753166, P95: 5.870906205406796, P99: 8.415043540310165, Overflow: 0},
	"jsq/leave/N=6":         {MeanDelay: 1.7095321782624069, MeanWait: 0.7095321782624069, HalfWidth: 0.10423283486190905, Jobs: 6000, MaxQueue: 5, P50: 1.2839719141751886, P95: 4.711478037874681, P99: 7.170788840151593, Overflow: 0},
	"jsq/restore/N=6":       {MeanDelay: 11.260672105080667, MeanWait: 10.260672105080667, HalfWidth: 1.9762476008228689, Jobs: 6000, MaxQueue: 47, P50: 2.4350801357369876, P95: 41.68220663297801, P99: 48.91478350453003, Overflow: 0},
	"jsq/slow/N=6":          {MeanDelay: 1.4007773163104689, MeanWait: 0.40077731631046887, HalfWidth: 0.06579864995186416, Jobs: 6000, MaxQueue: 4, P50: 0.9900000000000001, P95: 4.0148353330285715, P99: 6.619454741868766, Overflow: 0},
	"jsq/slow-het/N=6":      {MeanDelay: 0.5698449690525945, MeanWait: -0.4301550309474055, HalfWidth: 0.0255033051553942, Jobs: 6000, MaxQueue: 4, P50: 0.2922659788167545, P95: 2.0339376953853674, P99: 3.5608252627329775, Overflow: 0},
	"lwl/crash/N=6":         {MeanDelay: 1.5349525498168923, MeanWait: 0.5349525498168923, HalfWidth: 0.10171858456353687, Jobs: 6000, MaxQueue: 10, P50: 1.2336250103745738, P95: 4.0148353330285715, P99: 5.640697159022844, Overflow: 0},
	"lwl/leave/N=6":         {MeanDelay: 1.5215569113776446, MeanWait: 0.5215569113776446, HalfWidth: 0.11318675867553077, Jobs: 6000, MaxQueue: 10, P50: 1.1852523014097833, P95: 4.178689443140948, P99: 5.989510371172589, Overflow: 0},
	"lwl/restore/N=6":       {MeanDelay: 2.95791647306334, MeanWait: 1.95791647306334, HalfWidth: 0.4113448919025747, Jobs: 6000, MaxQueue: 18, P50: 1.5067630358630366, P95: 9.679649274963232, P99: 11.822829145790845, Overflow: 0},
	"lwl/slow/N=6":          {MeanDelay: 1.2902191163108467, MeanWait: 0.29021911631084674, HalfWidth: 0.07658924173172409, Jobs: 6000, MaxQueue: 8, P50: 0.9323450234446055, P95: 3.7061502402957958, P99: 5.870906205406796, Overflow: 0},
	"lwl/slow-het/N=6":      {MeanDelay: 0.5047220406393966, MeanWait: -0.49527795936060337, HalfWidth: 0.02121809618074465, Jobs: 6000, MaxQueue: 6, P50: 0.269794783041552, P95: 1.733198129964217, P99: 3.2870472406583384, Overflow: 0},
	"jiq/crash/N=6":         {MeanDelay: 2.7012231388384533, MeanWait: 1.7012231388384533, HalfWidth: 0.22782423578152078, Jobs: 6000, MaxQueue: 30, P50: 1.4190131494921088, P95: 9.679649274963232, P99: 20.288421154822906, Overflow: 0},
	"jiq/leave/N=6":         {MeanDelay: 2.689677115046302, MeanWait: 1.689677115046302, HalfWidth: 0.2444115295176953, Jobs: 6000, MaxQueue: 29, P50: 1.4190131494921088, P95: 10.074696689511264, P99: 19.49287479055184, Overflow: 0},
	"jiq/restore/N=6":       {MeanDelay: 11.567600161184895, MeanWait: 10.567600161184895, HalfWidth: 1.950993225030947, Jobs: 6000, MaxQueue: 135, P50: 1.5999392585303311, P95: 70.1118393914018, P99: 115.59680764552374, Overflow: 0},
	"jiq/slow/N=6":          {MeanDelay: 1.7865013475404694, MeanWait: 0.7865013475404694, HalfWidth: 0.15125317981337086, Jobs: 6000, MaxQueue: 16, P50: 1.0304040404040402, P95: 5.103896839254332, P99: 14.154581266892182, Overflow: 0},
	"jiq/slow-het/N=6":      {MeanDelay: 0.597768193847747, MeanWait: -0.40223180615225296, HalfWidth: 0.026850511654709575, Jobs: 6000, MaxQueue: 7, P50: 0.2864785336916702, P95: 2.293267521457772, P99: 4.0959431175341985, Overflow: 0},
	"rr/crash/N=6":          {MeanDelay: 48.74699487971577, MeanWait: 47.74699487971577, HalfWidth: 4.97157752318235, Jobs: 6000, MaxQueue: 552, P50: 2.1169470901567315, P95: 284.3307980325498, P99: 391.5640131375704, Overflow: 0},
	"rr/leave/N=6":          {MeanDelay: 51.45178217275331, MeanWait: 50.45178217275331, HalfWidth: 5.068880429404909, Jobs: 6000, MaxQueue: 552, P50: 2.0339376953853674, P95: 308.0126978657462, P99: 391.5640131375704, Overflow: 0},
	"rr/restore/N=6":        {MeanDelay: 40.773057942875475, MeanWait: 39.773057942875475, HalfWidth: 4.561531798738769, Jobs: 6000, MaxQueue: 210, P50: 2.9742334234766927, P95: 175.9363604283281, P99: 194.4403971499309, Overflow: 0},
	"rr/slow/N=6":           {MeanDelay: 19.571666532122663, MeanWait: 18.571666532122663, HalfWidth: 2.855346922420969, Jobs: 6000, MaxQueue: 194, P50: 1.665236238778482, P95: 165.690293018493, P99: 262.4697074828525, Overflow: 0},
	"rr/slow-het/N=6":       {MeanDelay: 38.948245113877206, MeanWait: 37.948245113877206, HalfWidth: 3.035639928003546, Jobs: 6000, MaxQueue: 379, P50: 0.8606606363781405, P95: 210.63532939326967, P99: 252.1777867894754, Overflow: 0},
	"random/crash/N=6":      {MeanDelay: 51.80862468613916, MeanWait: 50.80862468613916, HalfWidth: 5.6796948721476195, Jobs: 6000, MaxQueue: 590, P50: 3.5608252627329775, P95: 333.66706210867324, P99: 391.5640131375704, Overflow: 0},
	"random/leave/N=6":      {MeanDelay: 50.847040455162485, MeanWait: 49.847040455162485, HalfWidth: 5.743555240896476, Jobs: 6000, MaxQueue: 661, P50: 3.6327611266265727, P95: 354.300589568399, P99: 441.48895806266034, Overflow: 0},
	"random/restore/N=6":    {MeanDelay: 43.8500946090656, MeanWait: 42.8500946090656, HalfWidth: 4.195359803966831, Jobs: 6000, MaxQueue: 221, P50: 6.8896090013063205, P95: 186.81603102308338, P99: 210.63532939326967, Overflow: 0},
	"random/slow/N=6":       {MeanDelay: 17.02135342068873, MeanWait: 16.02135342068873, HalfWidth: 2.3448276313297374, Jobs: 6000, MaxQueue: 177, P50: 2.9153377121207185, P95: 127.7546559059134, P99: 219.23181258450597, Overflow: 0},
	"random/slow-het/N=6":   {MeanDelay: 41.914154729610736, MeanWait: 40.914154729610736, HalfWidth: 3.295658502549703, Jobs: 6000, MaxQueue: 351, P50: 1.3363735839711353, P95: 232.78881637271502, P99: 262.4697074828525, Overflow: 0},
	"sqd/crash/N=100":       {MeanDelay: 1.6506383491610253, MeanWait: 0.6506383491610253, HalfWidth: 0.04528928925145143, Jobs: 6000, MaxQueue: 5, P50: 1.258546727755878, P95: 4.618181443065282, P99: 6.619454741868766, Overflow: 0},
	"sqd/leave/N=100":       {MeanDelay: 1.584817397254719, MeanWait: 0.584817397254719, HalfWidth: 0.04243308543663734, Jobs: 6000, MaxQueue: 5, P50: 1.2091967923473546, P95: 4.437094042102034, P99: 6.3598937285614925, Overflow: 0},
	"sqd/restore/N=100":     {MeanDelay: 1.6060970976018143, MeanWait: 0.6060970976018143, HalfWidth: 0.042462399168944495, Jobs: 6000, MaxQueue: 5, P50: 1.2091967923473546, P95: 4.526732305578841, P99: 6.619454741868766, Overflow: 0},
	"sqd/slow/N=100":        {MeanDelay: 1.5996501005657753, MeanWait: 0.5996501005657753, HalfWidth: 0.0480144680716366, Jobs: 6000, MaxQueue: 5, P50: 1.2091967923473546, P95: 4.437094042102034, P99: 6.8896090013063205, Overflow: 0},
	"sqd/slow-het/N=100":    {MeanDelay: 1.1013941870217645, MeanWait: 0.1013941870217645, HalfWidth: 0.04000981272060196, Jobs: 6000, MaxQueue: 5, P50: 0.677014219037907, P95: 3.6327611266265727, P99: 6.233955238887008, Overflow: 0},
	"jsq/crash/N=100":       {MeanDelay: 0.9839027690378715, MeanWait: -0.01609723096212845, HalfWidth: 0.02370473119770903, Jobs: 6000, MaxQueue: 1, P50: 0.677014219037907, P95: 2.9153377121207185, P99: 4.526732305578841, Overflow: 0},
	"jsq/leave/N=100":       {MeanDelay: 0.9787915289778591, MeanWait: -0.02120847102214085, HalfWidth: 0.024872635377226095, Jobs: 6000, MaxQueue: 1, P50: 0.6636079968787408, P95: 2.9742334234766927, P99: 4.437094042102034, Overflow: 0},
	"jsq/restore/N=100":     {MeanDelay: 0.997806223927973, MeanWait: -0.002193776072026976, HalfWidth: 0.02503031734599105, Jobs: 6000, MaxQueue: 1, P50: 0.6906912739679658, P95: 2.9742334234766927, P99: 4.618181443065282, Overflow: 0},
	"jsq/slow/N=100":        {MeanDelay: 0.994523009729444, MeanWait: -0.005476990270556037, HalfWidth: 0.02597041936624464, Jobs: 6000, MaxQueue: 1, P50: 0.6906912739679658, P95: 2.857608252474764, P99: 4.526732305578841, Overflow: 0},
	"jsq/slow-het/N=100":    {MeanDelay: 0.5315999507940138, MeanWait: -0.4684000492059862, HalfWidth: 0.01650749408107232, Jobs: 6000, MaxQueue: 2, P50: 0.3230049368771239, P95: 1.7682122335998576, P99: 3.1581560636890877, Overflow: 0},
	"lwl/crash/N=100":       {MeanDelay: 0.9920655039883529, MeanWait: -0.007934496011647085, HalfWidth: 0.025185053314776898, Jobs: 6000, MaxQueue: 1, P50: 0.677014219037907, P95: 3.0343189471832916, P99: 4.526732305578841, Overflow: 0},
	"lwl/leave/N=100":       {MeanDelay: 0.9968059992093099, MeanWait: -0.003194000790690099, HalfWidth: 0.027358825540808925, Jobs: 6000, MaxQueue: 1, P50: 0.677014219037907, P95: 2.9742334234766927, P99: 4.526732305578841, Overflow: 0},
	"lwl/restore/N=100":     {MeanDelay: 0.9961205561888716, MeanWait: -0.003879443811128369, HalfWidth: 0.025920974088608505, Jobs: 6000, MaxQueue: 1, P50: 0.677014219037907, P95: 3.0343189471832916, P99: 4.618181443065282, Overflow: 0},
	"lwl/slow/N=100":        {MeanDelay: 1.000573607785764, MeanWait: 0.0005736077857640964, HalfWidth: 0.026457242323376172, Jobs: 6000, MaxQueue: 1, P50: 0.6906912739679658, P95: 2.9742334234766927, P99: 4.618181443065282, Overflow: 0},
	"lwl/slow-het/N=100":    {MeanDelay: 0.5299540660281038, MeanWait: -0.4700459339718962, HalfWidth: 0.015096594477391149, Jobs: 6000, MaxQueue: 2, P50: 0.31660879951322046, P95: 1.733198129964217, P99: 3.1581560636890877, Overflow: 0},
	"jiq/crash/N=100":       {MeanDelay: 1.0022327687611667, MeanWait: 0.002232768761166737, HalfWidth: 0.027611876870371563, Jobs: 6000, MaxQueue: 1, P50: 0.7046446330380256, P95: 3.0343189471832916, P99: 4.526732305578841, Overflow: 0},
	"jiq/leave/N=100":       {MeanDelay: 1.0063777592970609, MeanWait: 0.006377759297060859, HalfWidth: 0.028801444363128766, Jobs: 6000, MaxQueue: 2, P50: 0.7046446330380256, P95: 2.9742334234766927, P99: 4.618181443065282, Overflow: 0},
	"jiq/restore/N=100":     {MeanDelay: 1.0155653335392143, MeanWait: 0.015565333539214299, HalfWidth: 0.025226298668327665, Jobs: 6000, MaxQueue: 1, P50: 0.7188798781499048, P95: 3.0343189471832916, P99: 4.711478037874681, Overflow: 0},
	"jiq/slow/N=100":        {MeanDelay: 1.0244735141435786, MeanWait: 0.024473514143578567, HalfWidth: 0.0250448455980786, Jobs: 6000, MaxQueue: 2, P50: 0.7188798781499048, P95: 3.095618319853661, P99: 4.711478037874681, Overflow: 0},
	"jiq/slow-het/N=100":    {MeanDelay: 0.5177851544497527, MeanWait: -0.4822148455502473, HalfWidth: 0.015842883102447396, Jobs: 6000, MaxQueue: 1, P50: 0.31033931833474093, P95: 1.6988773749154211, P99: 3.0343189471832916, Overflow: 0},
	"rr/crash/N=100":        {MeanDelay: 2.0063818765543022, MeanWait: 1.0063818765543022, HalfWidth: 0.06568529036663245, Jobs: 6000, MaxQueue: 36, P50: 1.3363735839711353, P95: 5.989510371172589, P99: 10.074696689511264, Overflow: 0},
	"rr/leave/N=100":        {MeanDelay: 1.9245233623719133, MeanWait: 0.9245233623719133, HalfWidth: 0.061595223662681026, Jobs: 6000, MaxQueue: 37, P50: 1.2839719141751886, P95: 5.754650636982901, P99: 9.679649274963232, Overflow: 0},
	"rr/restore/N=100":      {MeanDelay: 1.9682608745426353, MeanWait: 0.9682608745426353, HalfWidth: 0.061270474250330026, Jobs: 6000, MaxQueue: 18, P50: 1.4190131494921088, P95: 5.754650636982901, P99: 9.300092397207594, Overflow: 0},
	"rr/slow/N=100":         {MeanDelay: 1.9684811569976564, MeanWait: 0.9684811569976564, HalfWidth: 0.060625386636408124, Jobs: 6000, MaxQueue: 17, P50: 1.4190131494921088, P95: 5.640697159022844, P99: 8.93541864376352, Overflow: 0},
	"rr/slow-het/N=100":     {MeanDelay: 2.8257834216656956, MeanWait: 1.8257834216656956, HalfWidth: 0.18847938186159777, Jobs: 6000, MaxQueue: 34, P50: 0.677014219037907, P95: 13.87429252893392, P99: 18.35766141777759, Overflow: 0},
	"random/crash/N=100":    {MeanDelay: 3.2255884135415087, MeanWait: 2.2255884135415087, HalfWidth: 0.08396784619574174, Jobs: 6000, MaxQueue: 25, P50: 2.1597136980386855, P95: 9.679649274963232, P99: 14.440532403597071, Overflow: 0},
	"random/leave/N=100":    {MeanDelay: 3.4297627262218895, MeanWait: 2.4297627262218895, HalfWidth: 0.10714643968409872, Jobs: 6000, MaxQueue: 33, P50: 2.386860727108532, P95: 10.485866843149106, P99: 15.333515726552804, Overflow: 0},
	"random/restore/N=100":  {MeanDelay: 3.612481412605048, MeanWait: 2.612481412605048, HalfWidth: 0.12037472740156342, Jobs: 6000, MaxQueue: 25, P50: 2.3395961582548988, P95: 11.588713717161324, P99: 20.288421154822906, Overflow: 0},
	"random/slow/N=100":     {MeanDelay: 3.212035311207528, MeanWait: 2.212035311207528, HalfWidth: 0.0843391505094354, Jobs: 6000, MaxQueue: 25, P50: 2.3395961582548988, P95: 9.115932151718338, P99: 14.440532403597071, Overflow: 0},
	"random/slow-het/N=100": {MeanDelay: 3.367590633725068, MeanWait: 2.367590633725068, HalfWidth: 0.17474458993168399, Jobs: 6000, MaxQueue: 44, P50: 1.2091967923473546, P95: 14.732260330942466, P99: 21.5430301424975, Overflow: 0},
	"tie/rr-det/N=5":        {MeanDelay: 16.980624999999986, MeanWait: 15.980624999999986, HalfWidth: 1.405643105940575, Jobs: 2000, MaxQueue: 177, P50: 1.0115606936416186, P95: 145.26, P99: 205.26, Overflow: 0},
}
