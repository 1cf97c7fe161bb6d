// Equivalence tests for the engine's run loop: an unobserved ("quiet")
// Run, an observed Run and a Step loop must be the same execution,
// observers must see every step exactly once, and event-only
// observers must get every event but no OnStep.
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

// normalize clears the only nondeterministic Snapshot field (wall-clock
// nanoseconds) so snapshots of equal executions compare byte-identical.
func normalize(s sim.Snapshot) sim.Snapshot {
	s.Stats.Nanos = 0
	return s
}

// TestRunEquivalence runs the same seeded random (w,r) workload
// three ways — Run with zero observers, Run with an OnStep observer and
// a manual Step loop — for FIFO, LIS and NTG, and requires identical
// Snapshots and StepStats (modulo Nanos) plus identical per-edge queue
// lengths.
func TestRunEquivalence(t *testing.T) {
	const steps = 500
	for _, pol := range []policy.Policy{policy.FIFO{}, policy.LIS{}, policy.NTG{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			build := func() *sim.Engine {
				g := graph.Line(12)
				adv := adversary.NewRandomWR(g, 20, rational.New(2, 5), 4, 23)
				e := sim.New(g, pol, adv)
				e.SeedN(3, packet.Injection{Route: []graph.EdgeID{0, 1}})
				return e
			}
			quiet, loud, manual := build(), build(), build()
			quiet.Run(steps)
			rec := &stepRecorder{}
			loud.AddObserver(rec)
			loud.Run(steps)
			for i := 0; i < steps; i++ {
				manual.Step()
			}
			sq, sl, sm := normalize(quiet.Snap()), normalize(loud.Snap()), normalize(manual.Snap())
			if sq != sl {
				t.Errorf("quiet Run snapshot %+v != observed Run snapshot %+v", sq, sl)
			}
			if sq != sm {
				t.Errorf("quiet Run snapshot %+v != Step-loop snapshot %+v", sq, sm)
			}
			if len(rec.times) != steps {
				t.Errorf("observed Run dispatched OnStep %d times over %d steps", len(rec.times), steps)
			}
			for eid := 0; eid < quiet.Graph().NumEdges(); eid++ {
				id := graph.EdgeID(eid)
				if quiet.QueueLen(id) != loud.QueueLen(id) || quiet.QueueLen(id) != manual.QueueLen(id) {
					t.Fatalf("edge %d: quiet queue %d, observed queue %d, Step-loop queue %d",
						eid, quiet.QueueLen(id), loud.QueueLen(id), manual.QueueLen(id))
				}
			}
		})
	}
}

// TestRunUntilQuietEquivalence pins an observer-free RunUntil (one
// Nanos charge per call) against a manual Step + predicate loop and against RunUntil with an observer attached: same
// fired flag, same stop time, same Snapshot, same queues — and the
// observed variant must still dispatch OnStep once per step.
func TestRunUntilQuietEquivalence(t *testing.T) {
	const maxSteps = 400
	pred := func(e *sim.Engine) bool { return e.Absorbed() >= 40 }
	for _, pol := range []policy.Policy{policy.FIFO{}, policy.NTG{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			build := func() *sim.Engine {
				g := graph.Line(10)
				adv := adversary.NewRandomWR(g, 18, rational.New(1, 3), 4, 31)
				e := sim.New(g, pol, adv)
				e.SeedN(3, packet.Injection{Route: []graph.EdgeID{0, 1}})
				return e
			}
			quiet, manual, observed := build(), build(), build()

			qFired := quiet.RunUntil(pred, maxSteps)
			mFired := false
			for i := int64(0); i < maxSteps; i++ {
				manual.Step()
				if pred(manual) {
					mFired = true
					break
				}
			}
			rec := &stepRecorder{}
			observed.AddObserver(rec)
			oFired := observed.RunUntil(pred, maxSteps)

			if qFired != mFired || qFired != oFired {
				t.Fatalf("fired: quiet %v, manual %v, observed %v", qFired, mFired, oFired)
			}
			sq, sm, so := normalize(quiet.Snap()), normalize(manual.Snap()), normalize(observed.Snap())
			if sq != sm {
				t.Errorf("quiet RunUntil snapshot %+v != Step-loop snapshot %+v", sq, sm)
			}
			if sq != so {
				t.Errorf("quiet RunUntil snapshot %+v != observed RunUntil snapshot %+v", sq, so)
			}
			for eid := 0; eid < quiet.Graph().NumEdges(); eid++ {
				id := graph.EdgeID(eid)
				if quiet.QueueLen(id) != manual.QueueLen(id) {
					t.Fatalf("edge %d: quiet queue %d != manual queue %d",
						eid, quiet.QueueLen(id), manual.QueueLen(id))
				}
			}
			if int64(len(rec.times)) != observed.Now() {
				t.Errorf("observed RunUntil dispatched OnStep %d times over %d steps",
					len(rec.times), observed.Now())
			}
			// The run loop must still account wall time in StepStats.
			if quiet.Snap().Stats.Nanos <= 0 {
				t.Error("quiet RunUntil recorded no Nanos")
			}
		})
	}
}

// TestRunUntilExhaustsBudget covers the pred-never-fires branch of the
// run loop: exactly maxSteps are taken and false is returned.
func TestRunUntilExhaustsBudget(t *testing.T) {
	g := graph.Line(4)
	e := sim.New(g, policy.FIFO{}, adversary.NewRandomWR(g, 8, rational.New(1, 2), 3, 3))
	if e.RunUntil(func(*sim.Engine) bool { return false }, 57) {
		t.Error("RunUntil fired with an always-false predicate")
	}
	if e.Now() != 57 {
		t.Errorf("RunUntil took %d steps, want 57", e.Now())
	}
}

// stepRecorder records the engine time at every OnStep dispatch.
type stepRecorder struct {
	times []int64
}

func (r *stepRecorder) OnStep(e *sim.Engine) { r.times = append(r.times, e.Now()) }

// TestRunDispatchesEveryStep attaches a recording observer to Run and
// requires exactly one OnStep per step, in order.
func TestRunDispatchesEveryStep(t *testing.T) {
	g := graph.Line(6)
	e := sim.New(g, policy.FIFO{}, adversary.NewRandomWR(g, 10, rational.New(1, 2), 3, 5))
	rec := &stepRecorder{}
	e.AddObserver(rec)
	e.Run(64)
	if len(rec.times) != 64 {
		t.Fatalf("observer saw %d steps, want 64", len(rec.times))
	}
	for i, now := range rec.times {
		if now != int64(i+1) {
			t.Fatalf("dispatch %d saw t=%d, want %d", i, now, i+1)
		}
	}
}

// countingEventObserver counts event-observer callbacks (and OnStep, to
// prove an event-only registration never receives it).
type countingEventObserver struct {
	steps, injects, reroutes, absorbs int
}

func (c *countingEventObserver) OnStep(*sim.Engine)                              { c.steps++ }
func (c *countingEventObserver) OnInject(int64, *packet.Packet)                  { c.injects++ }
func (c *countingEventObserver) OnReroute(int64, *packet.Packet, []graph.EdgeID) { c.reroutes++ }
func (c *countingEventObserver) OnAbsorb(int64, *packet.Packet)                  { c.absorbs++ }

// TestEventOnlyObserverSkipsOnStep verifies the AddEventObserver contract:
// an observer registered for events only is left out of the OnStep
// dispatch, but Run still delivers its injection and absorption events.
func TestEventOnlyObserverSkipsOnStep(t *testing.T) {
	g := graph.Line(8)
	e := sim.New(g, policy.FIFO{}, adversary.NewRandomWR(g, 12, rational.New(1, 2), 3, 9))
	ob := &countingEventObserver{}
	e.AddEventObserver(ob)
	e.Run(200)
	if ob.steps != 0 {
		t.Errorf("event-only observer got OnStep %d times, want 0", ob.steps)
	}
	if int64(ob.injects) != e.Injected() || ob.injects == 0 {
		t.Errorf("observer saw %d injections, engine reports %d", ob.injects, e.Injected())
	}
	if int64(ob.absorbs) != e.Absorbed() || ob.absorbs == 0 {
		t.Errorf("observer saw %d absorptions, engine reports %d", ob.absorbs, e.Absorbed())
	}
	if ob.reroutes != 0 {
		t.Errorf("RandomWR never reroutes, observer saw %d", ob.reroutes)
	}
}
