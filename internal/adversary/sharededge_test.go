package adversary

import (
	"math/rand"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
)

// mapSharedEdge is the nested-map SharedEdge that candidate
// intersection replaced, kept as its reference.
func mapSharedEdge(pkts []*packet.Packet) (graph.EdgeID, bool) {
	if len(pkts) == 0 {
		return graph.NoEdge, false
	}
	counts := make(map[graph.EdgeID]int)
	for _, p := range pkts {
		seen := make(map[graph.EdgeID]bool)
		for _, e := range p.RemainingRoute() {
			if !seen[e] {
				seen[e] = true
				counts[e]++
			}
		}
	}
	best, found := graph.NoEdge, false
	for e, c := range counts {
		if c == len(pkts) && (!found || e < best) {
			best, found = e, true
		}
	}
	return best, found
}

// TestSharedEdgeMatchesMapReference compares SharedEdge with the map
// reference on random packet sets: empty sets, sets with no shared
// edge, and sets sharing several edges, where the lowest ID must win.
// Routes repeat edges, reach past 32 distinct edges and sit at random
// positions, so only their remaining parts count.
func TestSharedEdgeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	outcomes := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		edges := 2 + rng.Intn(60)
		common := make([]graph.EdgeID, rng.Intn(4)) // planted shared edges, any order
		for i := range common {
			common[i] = graph.EdgeID(rng.Intn(edges))
		}
		pkts := make([]*packet.Packet, rng.Intn(6))
		for i := range pkts {
			pos := rng.Intn(3)
			route := make([]graph.EdgeID, pos, pos+48)
			for j := range route {
				route[j] = graph.EdgeID(rng.Intn(edges))
			}
			route = append(route, common...)
			for n := rng.Intn(45); n > 0; n-- {
				route = append(route, graph.EdgeID(rng.Intn(edges)))
			}
			if len(route) == pos {
				route = append(route, graph.EdgeID(rng.Intn(edges)))
			}
			rng.Shuffle(len(route)-pos, func(a, b int) {
				route[pos+a], route[pos+b] = route[pos+b], route[pos+a]
			})
			pkts[i] = &packet.Packet{Route: route, Pos: pos}
		}
		want, wantOK := mapSharedEdge(pkts)
		got, ok := SharedEdge(pkts)
		if got != want || ok != wantOK {
			t.Fatalf("trial %d: SharedEdge = (%d, %v), map reference (%d, %v)", trial, got, ok, want, wantOK)
		}
		switch {
		case len(pkts) == 0:
			outcomes["empty"]++
		case !ok:
			outcomes["none"]++
		case len(common) > 1:
			outcomes["tie"]++
		default:
			outcomes["one"]++
		}
	}
	for _, k := range []string{"empty", "none", "tie", "one"} {
		if outcomes[k] < 500 {
			t.Errorf("too few %q cases: %v", k, outcomes)
		}
	}
}
