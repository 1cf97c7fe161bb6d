package sim

import (
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
)

// dropLog records every OnDrop notification.
type dropLog struct {
	events []struct {
		t   int64
		eid graph.EdgeID
		id  packet.ID
	}
}

func (d *dropLog) OnDrop(t int64, eid graph.EdgeID, p *packet.Packet) {
	d.events = append(d.events, struct {
		t   int64
		eid graph.EdgeID
		id  packet.ID
	}{t, eid, p.ID})
}

func boundedLine(n, cap int, drop DropPolicy, adv Adversary) (*graph.Graph, *Engine) {
	g := graph.Line(n)
	e := NewWithConfig(g, policy.FIFO{}, adv, Config{BufferCap: cap, Drop: drop})
	return g, e
}

func TestDropTailRejectsOverflowArrivals(t *testing.T) {
	g, e := boundedLine(1, 2, DropTail{}, nil)
	log := &dropLog{}
	e.AddEventObserver(log)
	for i := 0; i < 5; i++ {
		e.Seed(packet.Inj(route(g, "e1")...))
	}
	// Cap 2: seeds 3, 4, 5 are dropped on arrival; the survivors are the
	// first two in admission order.
	if got := e.Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
	if got := e.QueueLen(g.MustEdge("e1")); got != 2 {
		t.Fatalf("queue %d, want 2", got)
	}
	if len(log.events) != 3 || log.events[0].id != 2 || log.events[2].id != 4 {
		t.Fatalf("drop log %v, want packets 2..4", log.events)
	}
	e.Run(5)
	if e.Absorbed() != 2 || e.TotalQueued() != 0 {
		t.Fatalf("after drain: %s", e.Snap())
	}
	if e.Injected() != 5 {
		t.Fatalf("injected %d, want 5 (drops still count as injections)", e.Injected())
	}
	e.CheckConservation() // injected = absorbed + queued + dropped
	if e.DropsAt(g.MustEdge("e1")) != 3 {
		t.Fatalf("per-edge drops %d, want 3", e.DropsAt(g.MustEdge("e1")))
	}
}

func TestDropHeadEvictsOldest(t *testing.T) {
	g, e := boundedLine(1, 2, DropHead{}, nil)
	for i := 0; i < 3; i++ {
		e.Seed(packet.Inj(route(g, "e1")...))
	}
	// Cap 2 under drop-head: seeding packet 2 evicts packet 0; the
	// buffer holds 1, 2 in enqueue order.
	if e.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", e.Dropped())
	}
	var ids []packet.ID
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) { ids = append(ids, p.ID) })
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("survivors %v, want [1 2]", ids)
	}
	e.CheckConservation()
}

func TestDropNTGVictimSelection(t *testing.T) {
	// Buffer holds a 3-hop and a 1-hop packet; a 2-hop arrival must
	// evict the 1-hop resident (strictly fewer remaining hops than the
	// arrival); then a 1-hop arrival ties the buffered minimum and is
	// itself dropped.
	g, e := boundedLine(3, 2, DropNTG{}, nil)
	e.Seed(packet.Inj(route(g, "e1", "e2", "e3")...)) // id 0, 3 hops
	e.Seed(packet.Inj(route(g, "e1")...))             // id 1, 1 hop
	e.Seed(packet.Inj(route(g, "e1", "e2")...))       // id 2, 2 hops: evicts id 1
	if e.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", e.Dropped())
	}
	// Buffered are now id 0 (3 hops) and id 2 (2 hops). A 1-hop arrival
	// finds no resident with strictly fewer hops, so it is itself
	// dropped (the arrival loses ties).
	e.Seed(packet.Inj(route(g, "e1")...)) // id 3, 1 hop
	if e.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", e.Dropped())
	}
	var ids []packet.ID
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) { ids = append(ids, p.ID) })
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("survivors %v, want [0 2]", ids)
	}
	e.CheckConservation()
}

func TestBoundedTransitDrops(t *testing.T) {
	// The receive substep precedes injections, so a transit arrival
	// filling the last slot makes a same-step injection at that edge
	// drop — and the admitted transit arrival still counts as a
	// receive.
	gl := graph.Line(2)
	e := NewWithConfig(gl, policy.FIFO{}, &onceInjector{at: 1, injs: []packet.Injection{
		packet.Inj(route(gl, "e2")...),
	}}, Config{BufferCap: 1, Drop: DropTail{}})
	e.Seed(packet.Inj(route(gl, "e1", "e2")...))
	// Step 1: seed crosses e1 and arrives at e2 (receive substep);
	// the injection also lands at e2 in the same substep. Arrival order
	// is transit first (receives precede injections), so the injected
	// packet finds e2 full and drops.
	e.Step()
	if e.Dropped() != 1 || e.QueueLen(gl.MustEdge("e2")) != 1 {
		t.Fatalf("after step 1: dropped %d queue %d: %s", e.Dropped(), e.QueueLen(gl.MustEdge("e2")), e.Snap())
	}
	if e.Stats().Receives != 1 {
		t.Fatalf("receives %d, want 1 (admitted transit arrival)", e.Stats().Receives)
	}
	e.Run(3)
	e.CheckConservation()
	if e.Absorbed() != 1 {
		t.Fatalf("absorbed %d, want 1", e.Absorbed())
	}
}

func TestBoundedKeyedPolicyEvictions(t *testing.T) {
	// Evictions under a keyed policy (NTG uses the per-edge heap fast
	// path) must keep the heap tombstone accounting consistent through
	// compactions. Hammer one edge with bursts that evict on every
	// arrival, then drain completely under each run mode and compare.
	build := func() *Engine {
		g := graph.Line(2)
		var injs []packet.Injection
		for i := 0; i < 6; i++ {
			injs = append(injs, packet.Inj(route(g, "e1", "e2")...))
			injs = append(injs, packet.Inj(route(g, "e1")...))
		}
		return NewWithConfig(g, policy.NTG{}, &onceInjector{at: 1, injs: injs},
			Config{BufferCap: 3, Drop: DropNTG{}})
	}
	ref := build()
	ref.Run(40)
	ref.CheckConservation()
	if ref.Dropped() == 0 {
		t.Fatal("scenario exercises no evictions")
	}
	snap := ref.Snap()
	snap.Stats.Nanos = 0
	for _, mode := range []string{"step", "leap"} {
		e := build()
		if mode == "step" {
			for i := 0; i < 40; i++ {
				e.Step()
			}
		} else {
			e.RunLeap(40)
		}
		e.CheckConservation()
		got := e.Snap()
		got.Stats.Nanos = 0
		if got != snap {
			t.Fatalf("%s mode diverges:\nref %+v\ngot %+v", mode, snap, got)
		}
	}
}

func TestUnboundedEngineNeverConsultsDropPolicy(t *testing.T) {
	g := graph.Line(1)
	e := NewWithConfig(g, policy.FIFO{}, nil, Config{})
	for i := 0; i < 100; i++ {
		e.Seed(packet.Inj(route(g, "e1")...))
	}
	if e.Dropped() != 0 || e.Drop() != nil || e.BufferCap() != 0 {
		t.Fatalf("unbounded engine reports bounded state: dropped=%d cap=%d", e.Dropped(), e.BufferCap())
	}
	e.CheckConservation()
}

func TestNegativeBufferCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BufferCap -1 did not panic")
		}
	}()
	NewWithConfig(graph.Line(1), policy.FIFO{}, nil, Config{BufferCap: -1})
}

func TestBoundedDefaultsToDropTail(t *testing.T) {
	e := NewWithConfig(graph.Line(1), policy.FIFO{}, nil, Config{BufferCap: 1})
	if e.Drop() == nil || e.Drop().Name() != "tail" {
		t.Fatalf("default drop policy = %v, want tail", e.Drop())
	}
}
