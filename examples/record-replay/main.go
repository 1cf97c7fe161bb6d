// Record & replay (Remark 1 of the paper): the instability
// constructions are written as adaptive controllers — they reroute
// packets on-line and read measured queue sizes — but the paper
// insists the adversary is really an oblivious rate-r injection
// sequence ("this is just a matter of representation"). This example
// records one full Theorem 3.17 cycle, validates the recorded
// schedule directly against the rate-r definition, and replays it
// obliviously, verifying the executions match buffer for buffer.
package main

import (
	"fmt"

	"aqt"
	"aqt/internal/adversary"
	"aqt/internal/core"
	"aqt/internal/sim"
)

func main() {
	// A cheap pumping point: r = 3/4 with gadget depth 6 (S0 = 192).
	params := core.ParamsFor(aqt.R(3, 4), 6)
	rec := adversary.NewScheduleRecorder()
	ins := core.NewInstability(aqt.R(1, 4), core.InstabilityOptions{
		MarginM:   aqt.R(3, 2),
		Observers: []sim.Observer{rec},
		Params:    &params,
	})
	fmt.Printf("recording one adversary cycle on G (r = %v, n = %d, M = %d) ...\n",
		ins.P.R, ins.P.N, ins.M)
	cycle, ok := ins.RunCycle()
	if !ok {
		fmt.Println("cycle did not complete")
		return
	}
	schedule := rec.Finish()
	steps := ins.Engine.Now()
	fmt.Printf("recorded %d injections over %d steps; cycle grew the queue x%.3f\n\n",
		len(schedule), steps, cycle.Growth())

	// 1. The oblivious schedule — every packet with its final route,
	// charged at its injection time — satisfies the rate-r constraint
	// directly, checked exactly on every edge and interval. No rerouting
	// bookkeeping needed; the last two arguments are ignored.
	if err := adversary.ValidateRecording(schedule, ins.P.R, 0, 0); err != nil {
		fmt.Printf("rate-r validation FAILED: %v\n", err)
		return
	}
	fmt.Printf("rate-r validation: the full schedule is a plain rate-%v adversary\n", ins.P.R)

	// 2. Replaying the schedule obliviously reproduces the execution
	// exactly (FIFO is historic, Lemma 3.3 claim (1)).
	replay := sim.New(ins.Chain.G, aqt.FIFO{}, adversary.NewReplay(schedule))
	adversary.SeedRecording(replay, schedule)
	for replay.Now() < steps {
		replay.Step()
	}
	if err := adversary.DivergenceAt(ins.Engine, replay); err != nil {
		fmt.Printf("replay DIVERGED: %v\n", err)
		return
	}
	fmt.Println("oblivious replay: identical execution, every buffer equal at every edge")
	fmt.Println("\nthe adaptive presentation and the oblivious rate-r adversary are the same object.")
}
