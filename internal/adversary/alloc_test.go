// Allocation gates for the adversary side of the Theorem 3.17 hot
// path: the per-step scripted injections and the Lemma 3.3 rerouter's
// bookkeeping of every injection. AllocsPerRun divides total
// allocations by runs (integer division).
package adversary

import (
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

func TestScriptInjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(4)
	tail := rt(g, "e4")
	s := NewScript(
		Stream{Name: "a", Start: 1, Rate: rational.New(3, 4), Budget: -1, Route: rt(g, "e1", "e2")},
		Stream{Name: "b", Start: 1, Rate: rational.New(1, 2), Budget: -1, Route: rt(g, "e3")},
		Stream{Name: "c", Start: 1, Rate: rational.New(2, 3), Budget: -1,
			RouteFn: func(int64) []graph.EdgeID { return tail }},
	)
	e := sim.New(g, fifo(), s)
	// Run into the streams (they start at step 1) until the reused
	// buffer has reached its peak size.
	for i := 0; i < 8; i++ {
		e.Step()
	}
	injected := 0
	if avg := testing.AllocsPerRun(512, func() { injected += len(s.Inject(e)) }); avg != 0 {
		t.Errorf("steady-state Script.Inject: %v allocs per call, want 0", avg)
	}
	if injected < 513*19/12-3 {
		t.Errorf("injected %d packets over 513 calls, want about %d", injected, 513*19/12)
	}
}

func TestBurstScriptInjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(4)
	b := NewBurstScript(BurstStream{Name: "b", Start: 1, Period: 1, Burst: 5, Budget: -1, Route: rt(g, "e1")})
	e := sim.New(g, fifo(), b)
	e.Step()
	if avg := testing.AllocsPerRun(512, func() {
		if len(b.Inject(e)) != 5 {
			t.Fatal("burst of 5 expected on every step")
		}
	}); avg != 0 {
		t.Errorf("steady-state BurstScript.Inject: %v allocs per call, want 0", avg)
	}
}

func TestRerouterOnInjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(64)
	rr := NewRerouter(rational.New(7, 10))
	short := &packet.Packet{Route: rt(g, "e1", "e2", "e3")}
	long := &packet.Packet{Route: rt(g, "e60", "e61", "e62", "e63", "e64")}
	rr.OnInject(0, long) // warm-up: the per-edge slices cover the graph
	tm := int64(0)
	if avg := testing.AllocsPerRun(512, func() {
		tm++
		rr.OnInject(tm, short)
		rr.OnInject(tm, long)
	}); avg != 0 {
		t.Errorf("Rerouter.OnInject after warm-up: %v allocs per call, want 0", avg)
	}
}

func TestValidatorHooksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(64)
	rv := NewRateValidator(rational.New(1, 2))
	wv := NewWindowValidator(8, rational.New(1, 2))
	old := rt(g, "e60", "e61")
	p := &packet.Packet{Route: rt(g, "e60", "e61", "e62", "e63", "e64"), InjectedAt: 1}
	for _, u := range []*usage{rv.usage, wv.usage} {
		u.OnInject(1, p) // warm-up: the marks cover the graph
		for _, e := range p.Route {
			u.times[e] = make([]int64, 0, 4096) // appends below stay in place
		}
	}
	tm := int64(1)
	if avg := testing.AllocsPerRun(512, func() {
		tm++
		p.InjectedAt = tm
		rv.OnInject(tm, p)
		rv.OnReroute(tm, p, old)
		wv.OnInject(tm, p)
		wv.OnReroute(tm, p, old)
	}); avg != 0 {
		t.Errorf("validator OnInject+OnReroute after warm-up: %v allocs per call, want 0", avg)
	}
	// A reroute charges only the edges it added, not the old route.
	if got := len(rv.times[g.MustEdge("e64")]); got != 2*513 {
		t.Errorf("e64 recorded %d times, want %d (inject + reroute per call)", got, 2*513)
	}
	if got := len(wv.times[g.MustEdge("e60")]); got != 513 {
		t.Errorf("e60 recorded %d times, want %d (inject only)", got, 513)
	}
}
