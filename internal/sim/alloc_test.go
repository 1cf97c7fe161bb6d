// Allocation regression gates for the engine hot path. These assert
// the two steady-state regimes the benchmarks track — the pure seeded
// FIFO drain and sustained random (w,r) load — run at 0 allocs/op, so
// future PRs cannot silently reintroduce per-step allocations.
// AllocsPerRun divides total allocations by runs (integer division),
// so the amortized arena/ring chunk allocations measure as 0.
package sim_test

import (
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

func TestStepAllocsSeededFIFODrain(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(8)
	route := []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")}
	e := sim.New(g, policy.FIFO{}, nil)
	e.SeedN(1<<12, packet.Inj(route...))
	e.Run(64)
	if avg := testing.AllocsPerRun(256, func() { e.Step() }); avg != 0 {
		t.Errorf("seeded FIFO drain: %v allocs per Step, want 0", avg)
	}
}

func TestStepAllocsRandomWR(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(32)
	adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
	e := sim.New(g, policy.FIFO{}, adv)
	// Warm up into steady state: arenas, rings and the active set reach
	// their recycled capacities.
	e.Run(512)
	if avg := testing.AllocsPerRun(512, func() { e.Step() }); avg != 0 {
		t.Errorf("random (w,r) load: %v allocs per Step, want 0", avg)
	}
}

// TestStepAllocsRecorded pins the observation path itself: a stride-32
// Recorder on random (w,r) load must not add per-step allocations
// (sample appends amortize below one alloc per step).
func TestStepAllocsRecorded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(32)
	adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
	e := sim.New(g, policy.FIFO{}, adv)
	rec := sim.NewRecorder(32)
	e.AddObserver(rec)
	e.Run(512)
	if avg := testing.AllocsPerRun(512, func() { e.Step() }); avg != 0 {
		t.Errorf("recorded random (w,r) load: %v allocs per Step, want 0", avg)
	}
}

// TestRouteCheckAllocs pins the simple-path check admit and every
// reroute run at 0 allocs per route once the engine's node marks cover
// the graph.
func TestRouteCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Ring(16)
	e := sim.New(g, policy.FIFO{}, nil)
	simple, closed := make([]graph.EdgeID, 10), make([]graph.EdgeID, 16)
	for i := range closed {
		closed[i] = graph.EdgeID(i)
	}
	copy(simple, closed)
	var okSimple, okClosed bool
	if avg := testing.AllocsPerRun(256, func() {
		okSimple, okClosed = e.SimpleRoute(simple), e.SimpleRoute(closed)
	}); avg != 0 {
		t.Errorf("route check: %v allocs per call, want 0", avg)
	}
	if !okSimple || okClosed {
		t.Errorf("route check = %v, %v; want true for the open route, false for the cycle", okSimple, okClosed)
	}
}

// TestExtendRouteAllocs pins ExtendRoute at exactly one allocation:
// the extended route itself.
func TestExtendRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const runs = 256
	g := graph.Line(8)
	e := sim.New(g, policy.FIFO{}, nil)
	pkts := make([]*packet.Packet, runs+1) // AllocsPerRun adds one warm-up call
	for i := range pkts {
		pkts[i] = e.Seed(packet.Inj(g.MustEdge("e1")))
	}
	ext := []graph.EdgeID{g.MustEdge("e2"), g.MustEdge("e3")}
	i := 0
	if avg := testing.AllocsPerRun(runs, func() {
		e.ExtendRoute(pkts[i], ext)
		i++
	}); avg != 1 {
		t.Errorf("ExtendRoute: %v allocs per call, want 1", avg)
	}
	if got := len(pkts[runs].Route); got != 3 {
		t.Errorf("extended route has %d edges, want 3", got)
	}
}
