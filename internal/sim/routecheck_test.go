package sim_test

import (
	"math/rand"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/policy"
	"aqt/internal/sim"
)

// mapSimplePath is the map-based simple-path check the engine's stamp
// marks replaced, kept as their reference.
func mapSimplePath(g *graph.Graph, route []graph.EdgeID) bool {
	if !g.IsPath(route) {
		return false
	}
	seen := map[graph.NodeID]bool{g.Edge(route[0]).From: true}
	for _, e := range route {
		to := g.Edge(e).To
		if seen[to] {
			return false
		}
		seen[to] = true
	}
	return true
}

func addRandomEdges(g *graph.Graph, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		u := rng.Intn(g.NumNodes())
		v := rng.Intn(g.NumNodes() - 1)
		if v >= u {
			v++
		}
		g.AddEdge(graph.NodeID(u), graph.NodeID(v), "")
	}
}

// TestRouteCheckMatchesMapReference holds the engine's route check to
// the map reference on random walks (which often revisit a node),
// walks with one edge replaced (usually broken), arbitrary and invalid
// edge IDs, and the empty route. Halfway through, the graph gains
// nodes and edges after the engine was built, and the run is long
// enough to wrap the marks' generation counter.
func TestRouteCheckMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.New()
	g.AddNodes(10)
	addRandomEdges(g, rng, 25)
	e := sim.New(g, policy.FIFO{}, nil)
	route := make([]graph.EdgeID, 0, 12)
	outcomes := map[bool]int{}
	for i := 0; i < 70000; i++ {
		if i == 35000 {
			g.AddNodes(6)
			addRandomEdges(g, rng, 30)
		}
		route = route[:0]
		switch rng.Intn(8) {
		case 0:
		case 1:
			for n := 1 + rng.Intn(6); len(route) < n; {
				route = append(route, graph.EdgeID(rng.Intn(g.NumEdges()+2)-1))
			}
		default:
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			for n := 1 + rng.Intn(10); len(route) < n && g.OutDegree(v) > 0; {
				eid := g.Out(v)[rng.Intn(g.OutDegree(v))]
				route = append(route, eid)
				v = g.Edge(eid).To
			}
			if len(route) > 0 && rng.Intn(4) == 0 {
				route[rng.Intn(len(route))] = graph.EdgeID(rng.Intn(g.NumEdges()))
			}
		}
		want := mapSimplePath(g, route)
		if got := e.SimpleRoute(route); got != want {
			t.Fatalf("check %d, route %v: engine says %v, map reference %v", i, route, got, want)
		}
		outcomes[want]++
	}
	if outcomes[true] < 1000 || outcomes[false] < 1000 {
		t.Errorf("random routes too one-sided: %v", outcomes)
	}
}
