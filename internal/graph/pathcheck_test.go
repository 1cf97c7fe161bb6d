package graph

import (
	"math"
	"math/rand"
	"testing"
)

// mapSimplePath is the map-based simple-path check the stamp marks
// replaced; it stays as the reference they are held to.
func mapSimplePath(g *Graph, route []EdgeID) bool {
	if !g.IsPath(route) {
		return false
	}
	seen := map[NodeID]bool{g.Edge(route[0]).From: true}
	for _, e := range route {
		to := g.Edge(e).To
		if seen[to] {
			return false
		}
		seen[to] = true
	}
	return true
}

func markedSimplePath(g *Graph, route []EdgeID, m *NodeMarks) bool {
	return g.IsPath(route) && g.NoRepeatedNode(route, m)
}

func addRandomEdges(g *Graph, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		u := rng.Intn(g.NumNodes())
		v := rng.Intn(g.NumNodes() - 1)
		if v >= u {
			v++
		}
		g.AddEdge(NodeID(u), NodeID(v), "")
	}
}

// randomRoute returns a random walk (often revisiting a node), a walk
// with one edge replaced (usually not contiguous), a list of arbitrary
// edge IDs including invalid ones, or the empty route.
func randomRoute(g *Graph, rng *rand.Rand) []EdgeID {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		route := make([]EdgeID, 1+rng.Intn(6))
		for i := range route {
			route[i] = EdgeID(rng.Intn(g.NumEdges()+2) - 1)
		}
		return route
	}
	v := NodeID(rng.Intn(g.NumNodes()))
	var route []EdgeID
	for n := 1 + rng.Intn(10); len(route) < n && g.OutDegree(v) > 0; {
		e := g.Out(v)[rng.Intn(g.OutDegree(v))]
		route = append(route, e)
		v = g.Edge(e).To
	}
	if len(route) > 0 && rng.Intn(4) == 0 {
		route[rng.Intn(len(route))] = EdgeID(rng.Intn(g.NumEdges()))
	}
	return route
}

// TestNoRepeatedNodeMatchesMapReference holds one reused NodeMarks to
// the map reference over random routes, across nodes added after the
// marks were sized and across the generation counter's wrap.
func TestNoRepeatedNodeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New()
	g.AddNodes(12)
	addRandomEdges(g, rng, 30)
	var m NodeMarks
	outcomes := map[bool]int{}
	check := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			route := randomRoute(g, rng)
			want := mapSimplePath(g, route)
			if got := markedSimplePath(g, route, &m); got != want {
				t.Fatalf("%s: route %v: marks say %v, map reference %v", phase, route, got, want)
			}
			if got := g.IsSimplePath(route); got != want {
				t.Fatalf("%s: route %v: IsSimplePath %v, map reference %v", phase, route, got, want)
			}
			outcomes[want]++
		}
	}
	check("initial graph", 40000)
	g.AddNodes(8)
	addRandomEdges(g, rng, 40)
	check("grown graph", 40000) // the generation wraps at 65536 checks
	if len(m.stamp) != g.NumNodes() {
		t.Errorf("marks cover %d nodes, graph has %d", len(m.stamp), g.NumNodes())
	}
	if outcomes[true] < 1000 || outcomes[false] < 1000 {
		t.Errorf("random routes too one-sided: %v", outcomes)
	}
}

// TestNoRepeatedNodeForcedWrap checks that a stamp left from
// generation 1 does not read as visited when the counter wraps back
// to 1.
func TestNoRepeatedNodeForcedWrap(t *testing.T) {
	g := Line(4)
	route := []EdgeID{0, 1, 2}
	var m NodeMarks
	if !markedSimplePath(g, route, &m) {
		t.Fatal("simple route rejected")
	}
	m.gen = math.MaxUint16
	if !markedSimplePath(g, route, &m) {
		t.Errorf("simple route rejected after the generation wrapped (gen %d)", m.gen)
	}
	if closed := Ring(3); markedSimplePath(closed, []EdgeID{0, 1, 2}, &m) {
		t.Error("cycle accepted after the generation wrapped")
	}
}

// FuzzPathCheck builds a graph and a batch of routes from the input
// and holds the reused stamp marks to the map reference on each.
func FuzzPathCheck(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 1, 2, 2, 3, 255, 1, 2, 3, 255, 1, 1})
	f.Add([]byte{3, 3, 0, 1, 1, 2, 2, 0, 255, 1, 2, 3, 1, 255, 0})
	f.Add([]byte{2, 2, 0, 1, 1, 0, 255, 1, 2, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := New()
		g.AddNodes(2 + int(data[0])%16)
		edges, rest := int(data[1])%48, data[2:]
		for ; edges > 0 && len(rest) >= 2; edges-- {
			u, v := NodeID(int(rest[0])%g.NumNodes()), NodeID(int(rest[1])%g.NumNodes())
			if u != v {
				g.AddEdge(u, v, "")
			}
			rest = rest[2:]
		}
		var m NodeMarks
		var route []EdgeID
		for i, b := range rest {
			if b != 255 {
				route = append(route, EdgeID(int(b)%(g.NumEdges()+2)-1))
			}
			if b == 255 || i == len(rest)-1 {
				if got, want := markedSimplePath(g, route, &m), mapSimplePath(g, route); got != want {
					t.Fatalf("route %v: marks say %v, map reference %v", route, got, want)
				}
				route = route[:0]
			}
		}
	})
}
