package bench

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"aqt/internal/adversary"
	"aqt/internal/core"
	"aqt/internal/expt"
	"aqt/internal/gadget"
	"aqt/internal/obs"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/scenario"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// engineState is the deterministic end state of an engine: its snapshot
// with the wall-clock field cleared, its leap counters (a traced run
// must leap exactly where the untraced one does) and its max residence.
type engineState struct {
	Snap   sim.Snapshot
	Leaps  sim.LeapStats
	MaxRes int64
}

func stateOf(e *sim.Engine) engineState {
	s := e.Snap()
	s.Stats.Nanos = 0
	return engineState{Snap: s, Leaps: e.Leaps(), MaxRes: e.MaxResidence(true)}
}

// conservation turns the engine's conservation panic into an error.
func conservation(e *sim.Engine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("conservation: %v", r)
		}
	}()
	e.CheckConservation()
	return nil
}

// cycleOutcome is everything deterministic a Theorem 3.17 cycle yields.
type cycleOutcome struct {
	Rec    core.CycleRecord
	OK     bool
	Engine engineState
}

// cycle runs one Theorem 3.17 cycle. Untraced it is ins.RunCycle; traced
// it is the same cycle assembled from the exported lemma phases, so the
// phase Sequence can be wrapped (RunCycle installs its own). The
// outcome comparison against the untraced pass holds the two to the
// same execution.
func (env *passEnv) cycle(ins *core.Instability, name string) cycleOutcome {
	var rec core.CycleRecord
	var ok bool
	env.span(name, func() {
		if env.tr == nil {
			rec, ok = ins.RunCycle()
			return
		}
		rec = core.CycleRecord{Cycle: len(ins.Cycles) + 1}
		rec.S1 = int64(ins.Engine.QueueLen(ins.Chain.Ingress(1)))
		start := ins.Engine.Now()
		phases := make([]adversary.Phase, 0, ins.M+2)
		rec.Pumps = make([]core.PumpReport, ins.M-1)
		phases = append(phases, core.BootstrapPhase(ins.P, ins.Chain, 1, ins.Rerouter, &rec.Bootstrap))
		for k := 1; k < ins.M; k++ {
			phases = append(phases, core.PumpPhase(ins.P, ins.Chain, k, ins.Rerouter, &rec.Pumps[k-1]))
		}
		phases = append(phases, core.DrainPhase(ins.P, ins.Chain, &rec.Drain))
		phases = append(phases, core.StitchPhase(ins.P, ins.Chain, &rec.Stitch))
		seq := adversary.NewSequence(phases...)
		ins.Engine.SetAdversary(env.tr.adversary(seq))
		maxSteps := 64 * ins.SStar * int64(ins.M+2) // RunCycle's step cap
		env.run("sim.RunLeapUntil", ins.Engine, func() {
			ok = ins.Engine.RunLeapUntil(func(*sim.Engine) bool { return seq.Finished() }, maxSteps)
		})
		ins.Engine.SetAdversary(nil)
		rec.S2 = rec.Bootstrap.SMeasured
		rec.S3 = rec.Drain.QEgress
		rec.S4 = rec.Stitch.Fresh
		rec.Steps = ins.Engine.Now() - start
		ins.Cycles = append(ins.Cycles, rec)
	})
	return cycleOutcome{Rec: rec, OK: ok, Engine: stateOf(ins.Engine)}
}

// newInstability builds a Theorem 3.17 instance. Traced, the Lemma 3.3
// rerouter (or any other observer in opt) is attached through its
// wrapper: the options then carry the wrapped observers and the
// rerouter is handed to the instance afterwards, in the same
// attachment order NewInstability itself uses.
func (env *passEnv) newInstability(eps rational.Rat, opt core.InstabilityOptions) *core.Instability {
	var ins *core.Instability
	env.setupSpan("core.NewInstability", func() {
		if env.tr == nil {
			ins = core.NewInstability(eps, opt)
			return
		}
		var rr *adversary.Rerouter
		var obsv []sim.Observer
		if opt.Validate {
			p := core.Solve(eps)
			if opt.Params != nil {
				p = *opt.Params
			}
			rr = adversary.NewRerouter(p.R)
			obsv = append(obsv, env.tr.observer(rr))
			opt.Validate = false
		}
		for _, ob := range opt.Observers {
			obsv = append(obsv, env.tr.observer(ob))
		}
		opt.Observers = obsv
		ins = core.NewInstability(eps, opt)
		ins.Rerouter = rr
	})
	return ins
}

// thm317Pass: the Theorem 3.17 construction at ε=1/5 with Lemma 3.3
// validation (r=7/10, n=9, M=8, S*=4624), two cycles. Small: the
// r=3/4, n=6 point of the E12 quick run, one cycle.
func thm317Pass(env *passEnv, _ any) {
	eps, opt, cycles := rational.New(1, 5), expt.InstabilityOpts(false), 2
	if env.cfg.Small {
		cheap := core.ParamsFor(rational.New(3, 4), 6)
		opt.MarginM, opt.Params, cycles = rational.New(3, 2), &cheap, 1
	}
	ins := env.newInstability(eps, opt)
	if env.setupOnly {
		return
	}
	env.watch(ins.Engine)
	for c := 1; c <= cycles; c++ {
		env.unit(fmt.Sprintf("cycle%d", c), func() (any, func() error) {
			out := env.cycle(ins, "core.cycle")
			return out, func() error {
				if err := conservation(ins.Engine); err != nil {
					return err
				}
				return checkCycle(env.cfg, out)
			}
		})
	}
	env.addEngine(ins.Engine)
}

func checkCycle(cfg Config, out cycleOutcome) error {
	r := out.Rec
	if !out.OK {
		return fmt.Errorf("cycle %d hit its step cap", r.Cycle)
	}
	if r.S4 <= r.S1 {
		return fmt.Errorf("cycle %d did not grow the queue: S1=%d S4=%d", r.Cycle, r.S1, r.S4)
	}
	if !cfg.Small {
		if r.Cycle > len(pinnedThm317) {
			return fmt.Errorf("no pinned values for cycle %d", r.Cycle)
		}
		if got, want := [5]int64{r.S1, r.S2, r.S3, r.S4, r.Steps}, pinnedThm317[r.Cycle-1]; got != want {
			return fmt.Errorf("cycle %d S1..S4,steps = %v, pinned %v", r.Cycle, got, want)
		}
	}
	return nil
}

// randomWR sizes the random-wr workload.
const (
	randomWRSteps      = 400_000
	randomWRSmallSteps = 20_000
)

type randomWROutcome struct {
	Verdict      stability.Verdict
	Peak, Final  int64
	Engine       engineState
	SamplePoints int
	LastBacklog  int64
	Latencies    int64
}

// randomWRPass: sustained RandomWR (w=64, max route length 5, r=9/10,
// seeded by --seed) on the stitched 3-gadget chain of depth 3 under
// LIS, through stability.Run with a Meter and a meter-linked Sampler.
func randomWRPass(env *passEnv, _ any) {
	steps := int64(randomWRSteps)
	if env.cfg.Small {
		steps = randomWRSmallSteps
	}
	stride := steps / 512
	var eng *sim.Engine
	var meter *obs.Meter
	var sam *obs.Sampler
	env.setupSpan("bench.setup", func() {
		chain := gadget.NewChain(3, 3, true)
		adv := adversary.NewRandomWR(chain.G, 64, rational.New(9, 10), 5, env.cfg.Seed)
		eng = sim.New(chain.G, policy.LIS{}, env.tr.adversary(adv))
		meter = obs.NewMeter(nil)
		eng.AddObserver(env.tr.observer(meter))
		sam = obs.NewSampler(obs.SamplerConfig{Every: stride, Meter: meter})
		if env.tr == nil {
			sam.Attach(eng)
		} else {
			// Attach would register the unwrapped sampler. The engine
			// reference Attach latches is read only to accept drain
			// leaps, which a meter-linked sampler refuses anyway.
			eng.AddObserver(env.tr.observer(sam))
		}
	})
	if env.setupOnly {
		return
	}
	env.watch(eng)
	env.unit("run", func() (any, func() error) {
		var rep stability.RunReport
		env.run("stability.Run", eng, func() { rep = stability.Run(eng, steps, stride, 1.25) })
		env.span("obs.Meter.Finish", func() { meter.Finish(eng) })
		series := sam.Series()
		out := randomWROutcome{
			Verdict: rep.Verdict, Peak: rep.PeakTotal, Final: rep.FinalTotal, Engine: stateOf(eng),
			SamplePoints: len(series[0].Points),
			LastBacklog:  series[0].Points[len(series[0].Points)-1].V,
			Latencies:    meter.LatencySnapshot().Count,
		}
		return out, func() error {
			if err := conservation(eng); err != nil {
				return err
			}
			if out.Verdict != stability.Stable {
				return fmt.Errorf("verdict %v, want stable (LIS is universally stable)", out.Verdict)
			}
			if env.cfg.Small {
				return nil
			}
			if want, ok := pinnedRandomWR[env.cfg.Seed]; ok {
				got := [4]int64{int64(out.Verdict), out.Peak, out.Final, out.Engine.Snap.Stats.Sends}
				if got != want {
					return fmt.Errorf("seed %d verdict,peak,final,hops = %v, pinned %v", env.cfg.Seed, got, want)
				}
			}
			return nil
		}
	})
	env.addEngine(eng)
}

// corpusSpec is one scenarios/*.json file, read once per run.
type corpusSpec struct {
	name string
	data []byte
}

func loadCorpus(cfg Config) (any, error) {
	paths, err := filepath.Glob(filepath.Join(cfg.Root, "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenarios/*.json under %q", cfg.Root)
	}
	sort.Strings(paths)
	var specs []corpusSpec
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, corpusSpec{name: filepath.Base(p), data: data})
	}
	return specs, nil
}

type corpusOutcome struct {
	Out      scenario.Outcome
	CkptLen  int
	CkptHash uint64
}

// corpusPass runs every spec: strict Parse, Build, Run in the spec's own
// mode with its checks, Checkpoint+Encode, DecodeCheckpoint, and a
// fresh Build+Restore that must be the same execution.
func corpusPass(env *passEnv, input any) {
	for _, sp := range input.([]corpusSpec) {
		sp := sp
		env.unit(sp.name, func() (any, func() error) {
			var spec *scenario.Spec
			var b, restored *scenario.Built
			var err error
			env.setupSpan("scenario.Parse", func() { spec, err = scenario.Parse(sp.name, sp.data) })
			must(err)
			env.parsedBytes += int64(len(sp.data))
			env.setupSpan("scenario.Build", func() { b, err = scenario.Build(spec) })
			must(err)
			if env.setupOnly {
				return nil, nil
			}
			if env.tr != nil {
				b.Engine.SetAdversary(env.tr.adversary(b.Engine.Adversary()))
			}
			env.watch(b.Engine)
			var out scenario.Outcome
			env.run("scenario.Built.Run", b.Engine, func() { out = b.Run() })
			var data []byte
			env.span("scenario.Checkpoint", func() {
				var cp *scenario.Checkpoint
				cp, err = b.Checkpoint()
				if err == nil {
					data = cp.Encode()
				}
			})
			must(err)
			env.ckptBytes += int64(len(data))
			var cp *scenario.Checkpoint
			env.span("scenario.DecodeCheckpoint", func() { cp, err = scenario.DecodeCheckpoint(sp.name, data) })
			must(err)
			env.span("scenario.Restore", func() {
				if restored, err = scenario.Build(spec); err == nil {
					err = restored.Restore(cp)
				}
			})
			must(err)
			env.addEngine(b.Engine)
			h := fnv.New64a()
			h.Write(data)
			o := corpusOutcome{Out: out, CkptLen: len(data), CkptHash: h.Sum64()}
			return o, func() error {
				if !o.Out.OK() {
					return fmt.Errorf("spec checks failed: %v", o.Out.Failures)
				}
				if err := adversary.SameExecution(b.Engine, restored.Engine); err != nil {
					return fmt.Errorf("restored engine: %w", err)
				}
				if err := conservation(b.Engine); err != nil {
					return err
				}
				got := pinOf(o.Out)
				want, ok := pinnedCorpus[sp.name]
				if !ok {
					return fmt.Errorf("no pinned outcome (got %#v)", got)
				}
				if got != want {
					return fmt.Errorf("outcome %+v, pinned %+v", got, want)
				}
				return nil
			}
		})
	}
}

// corpusPin is the part of a spec's outcome the benchmark pins.
type corpusPin struct {
	Now, Injected, Absorbed, Dropped, Queued, Sends, LeapWindows, MaxResidence int64
}

func pinOf(o scenario.Outcome) corpusPin {
	return corpusPin{o.Snap.Now, o.Snap.Injected, o.Snap.Absorbed, o.Snap.Dropped, o.Snap.TotalQueued,
		o.Snap.Stats.Sends, o.Leaps.Windows, o.MaxResidence}
}

type remark1Outcome struct {
	Cycle      cycleOutcome
	Packets    int
	RateOK     bool
	Divergence string
	Replay     engineState
}

// remark1Pass: the E12 pipeline at its quick point (r=3/4, n=6). Record
// one cycle, audit the recording against rate r, replay it obliviously
// and compare the two executions.
func remark1Pass(env *passEnv, _ any) {
	cheap := core.ParamsFor(rational.New(3, 4), 6)
	if env.cfg.Small {
		cheap = core.ParamsFor(rational.New(3, 4), 4)
	}
	rec := adversary.NewScheduleRecorder()
	ins := env.newInstability(rational.New(1, 4), core.InstabilityOptions{
		MarginM:   rational.New(3, 2),
		Observers: []sim.Observer{rec},
		Params:    &cheap,
	})
	if env.setupOnly {
		return
	}
	env.watch(ins.Engine)
	env.unit("probe", func() (any, func() error) {
		var out remark1Outcome
		out.Cycle = env.cycle(ins, "core.record")
		schedule := rec.Finish()
		out.Packets = len(schedule)
		env.recorded += int64(len(schedule))
		var rateErr, div error
		env.span("adversary.ValidateRecording", func() {
			rateErr = adversary.ValidateRecording(schedule, ins.P.R, 400, 4*ins.SStar)
		})
		var replay *sim.Engine
		env.span("adversary.NewReplay", func() {
			replay = sim.New(ins.Chain.G, policy.FIFO{}, env.tr.adversary(adversary.NewReplay(schedule)))
			adversary.SeedRecording(replay, schedule)
		})
		env.watch(replay)
		env.run("sim.Run", replay, func() { replay.Run(out.Cycle.Rec.Steps) })
		env.span("adversary.DivergenceAt", func() { div = adversary.DivergenceAt(ins.Engine, replay) })
		env.addEngine(ins.Engine)
		env.addEngine(replay)
		out.RateOK = rateErr == nil
		if div != nil {
			out.Divergence = div.Error()
		}
		out.Replay = stateOf(replay)
		return out, func() error {
			if rateErr != nil {
				return fmt.Errorf("rate audit: %w", rateErr)
			}
			if div != nil {
				return fmt.Errorf("replay diverged: %w", div)
			}
			if !out.Cycle.OK {
				return fmt.Errorf("recorded cycle hit its step cap")
			}
			if err := conservation(replay); err != nil {
				return err
			}
			if !env.cfg.Small && out.Packets != pinnedRemark1Packets {
				return fmt.Errorf("recorded %d packets, pinned %d", out.Packets, pinnedRemark1Packets)
			}
			return nil
		}
	})
}
