package expt

import (
	"aqt/internal/adversary"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// H1Heterogeneous probes the direction of Koukopoulos, Nikoletseas and
// Spirakis [15] (heterogeneous queueing networks): the Lemma 3.6 pump
// depends on FIFO mixing at the target gadget's e'-buffers, so
// switching just those n edges to a universally stable policy (LIS)
// while the rest of the network stays FIFO collapses the pump — a
// single heterogeneous pipeline is enough to defuse the instability.
func H1Heterogeneous(q Quick) *Table {
	t := &Table{
		ID:      "H1",
		Title:   "Heterogeneous networks: LIS on the e'-path defuses the FIFO pump ([15] direction)",
		Columns: []string{"network", "S", "S'", "growth", "pumped", "ok"},
		OK:      true,
	}
	p := core.Solve(rational.New(1, 5))
	s := 2 * p.S0
	if q {
		s = p.S0
	}

	type cfg struct {
		name   string
		hetero bool
	}
	for _, c := range []cfg{{"uniform FIFO", false}, {"FIFO + LIS e'-path", true}} {
		sPrime := runHeteroPump(p, s, c.hetero)
		growth := float64(sPrime) / float64(s)
		pumped := sPrime > s
		// Uniform FIFO must pump; the heterogeneous variant must not.
		ok := pumped != c.hetero
		if !ok {
			t.OK = false
		}
		t.AddRow(c.name, s, sPrime, growth, pumped, ok)
	}
	t.AddNote("identical adversary schedule in both rows; only the scheduling policy of the n target-gadget e'-edges differs")
	return t
}

// runHeteroPump replays the frozen Lemma 3.6 pump schedule on a
// 2-gadget chain; with hetero set, the target gadget's e'-path runs
// LIS instead of FIFO. Returns the conforming invariant size at the
// target after 2S+n steps.
func runHeteroPump(p core.Params, s int64, hetero bool) int64 {
	c, e := HeteroPumpEngine(p, s, hetero)
	e.Run(2*s + int64(p.N))
	rep := c.CheckInvariant(e, 2, true)
	goodE := int64(rep.ETotal - rep.BadERoutes)
	if int64(rep.AQueue) < goodE {
		return int64(rep.AQueue)
	}
	return goodE
}

// HeteroPumpEngine wires the frozen Lemma 3.6 pump on a 2-gadget chain
// without running it: invariant seeded, gadget-1 routes extended into
// the target, pump script installed. With hetero set, the target
// gadget's e'-path runs LIS instead of FIFO. The scenario emitter uses
// this to serialize the construction and hold the spec-compiled run to
// the same execution.
func HeteroPumpEngine(p core.Params, s int64, hetero bool) (*gadget.Chain, *sim.Engine) {
	c := gadget.NewChain(p.N, 2, false)
	lisEdges := map[graph.EdgeID]bool{}
	for _, eid := range c.EPath(2) {
		lisEdges[eid] = true
	}
	cfg := sim.Config{}
	if hetero {
		cfg.PolicyFor = func(eid graph.EdgeID) policy.Policy {
			if lisEdges[eid] {
				return policy.LIS{}
			}
			return nil
		}
	}
	e := sim.NewWithConfig(c.G, policy.FIFO{}, nil, cfg)
	c.SeedInvariant(e, 1, int(s))

	// The frozen FIFO pump schedule (as in Lemma 3.6).
	script := adversary.NewScript()
	for i := 1; i <= p.N; i++ {
		script.AddStream(adversary.Stream{
			Start: int64(i), Rate: p.R,
			Budget: p.R.FloorMulInt(p.Ti(s, i) + 1),
			Route:  []graph.EdgeID{c.EPath(2)[i-1]},
		})
	}
	long := append(append([]graph.EdgeID{}, c.LongRoute(1)...), c.FPath(2)...)
	long = append(long, c.Egress(2))
	script.AddStream(adversary.Stream{Start: 1, Rate: p.R, Budget: p.R.FloorMulInt(s), Route: long})
	tail := append([]graph.EdgeID{c.Ingress(2)}, c.FPath(2)...)
	tail = append(tail, c.Egress(2))
	script.AddStream(adversary.Stream{Start: s + int64(p.N) + 1, Rate: p.R, Budget: p.X(s), Route: tail})

	ext := append(append([]graph.EdgeID{}, c.EPath(2)...), c.Egress(2))
	for _, eid := range c.GadgetEdges(1) {
		qb := e.Queue(eid)
		for i := 0; i < qb.Len(); i++ {
			e.ExtendRoute(qb.At(i), ext)
		}
	}
	e.SetAdversary(script)
	return c, e
}
