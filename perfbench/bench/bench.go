// Package bench is the repository benchmark: it runs the paper's
// workloads end to end through the public functions of the simulator's
// layers, checks every simulated outcome, and reports end-to-end
// metrics from untraced passes and per-layer metrics from traced ones.
//
// A run repeats passes of one workload until its time budget is spent.
// A pass is one complete execution of the workload (for thm317: build
// the instance and run two cycles); it is made of units (a cycle, a
// scenario spec, a probe), and a unit fails on a panic or on an
// outcome that differs from the pinned or reference value.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"aqt/internal/sim"
)

// Config selects and sizes a run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the measuring budget: passes start until it is spent,
	// but at least MinPasses run (MinPasses pairs in a traced run).
	Seconds   float64
	Trace     bool
	MinPasses int
	// Small runs every workload at a reduced size with no pinned
	// values (the self-test).
	Small bool
	// Root is the repository checkout holding scenarios/.
	Root string
	// SpansPath, when set in a traced run, receives the spans as JSONL.
	SpansPath string
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the result of a run.
type Report struct {
	Workload  string
	Passes    int // untraced passes
	Traced    int // traced passes
	Attempted int // units attempted
	Failed    int // units failed
	Failures  []string
	// Metrics are the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics map[string]Metric
	// Untraced holds, in a traced run, the end-to-end metrics of its
	// untraced passes (printed, not part of the result line).
	Untraced map[string]Metric
	// TracedWall is, in a traced run, the mean wall time of its traced
	// passes as the pass loop measured it, outside the tracer.
	TracedWall float64
	// HostFactor is the median over untraced passes of the factor that
	// scales a pass's times to reference seconds (see calib.go).
	HostFactor float64
}

// Workloads lists the workload names in the order they are documented.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type workload struct {
	name string
	// prepare loads the workload's inputs once per run, outside timing.
	prepare func(cfg Config) (any, error)
	// pass runs one pass; it reports its units through env.unit.
	pass func(env *passEnv, input any)
	// unscaled reports the workload's pass times in host seconds, with
	// no host probe (calib.go): for a workload the host's load barely
	// moves, scaling would add the probe's swings instead of taking out
	// the host's. Its setup_s is still scaled (setupMedian).
	unscaled bool
}

var workloads = []workload{
	{name: "thm317", pass: thm317Pass},
	{name: "random-wr", pass: randomWRPass},
	{name: "corpus", prepare: loadCorpus, pass: corpusPass},
	// Nearly all of a pass is ValidateRecording's scans of sorted
	// per-edge times: over passes whose probe factor ranged from 0.84
	// to 1.32 its time stayed within 2.9-3.2 s (correlation 0.4), and
	// scaled run medians spread 0.19 where host ones spread 0.04.
	{name: "remark1", pass: remark1Pass, unscaled: true},
}

// unitResult is one unit of a pass. check runs after the pass is timed.
type unitResult struct {
	name    string
	outcome any
	check   func() error
	err     error
}

// engineTotals sums the counters of the engines a pass ran.
type engineTotals struct {
	steps, hops, injections, leapWindows, leapSteps int64
}

// passEnv is what a workload's pass sees. In an untraced pass tr is
// nil and every tracing hook is a no-op.
type passEnv struct {
	cfg Config
	tr  *tracer
	// setupOnly makes the pass return right after its set-up (the
	// extra set-up samples of a run).
	setupOnly bool
	units     []unitResult
	setup     time.Duration
	eng       engineTotals

	recorded    int64 // packets audited by the rate check
	parsedBytes int64 // scenario spec bytes parsed
	ckptBytes   int64 // encoded checkpoint bytes

	// Traced passes only.
	routes        []*routeSample
	runAlloc      uint64 // heap bytes allocated inside engine run calls
	runInjections int64  // injections admitted inside engine run calls
}

// unit runs fn as one unit, counting a panic as the unit's failure.
func (env *passEnv) unit(name string, fn func() (outcome any, check func() error)) {
	u := unitResult{name: name}
	func() {
		defer func() {
			if r := recover(); r != nil {
				u.err = fmt.Errorf("panic: %v", r)
			}
		}()
		u.outcome, u.check = fn()
	}()
	env.units = append(env.units, u)
}

// span runs fn inside a span (a no-op wrapper when untraced).
func (env *passEnv) span(name string, fn func()) { env.tr.do(name, fn) }

// setupSpan runs fn inside a span and charges its time to set-up.
func (env *passEnv) setupSpan(name string, fn func()) {
	t := time.Now()
	env.tr.do(name, fn)
	env.setup += time.Since(t)
}

// run wraps one engine run call: a span, plus in traced passes the heap
// bytes and injections inside it.
func (env *passEnv) run(name string, e *sim.Engine, fn func()) {
	if env.tr == nil {
		fn()
		return
	}
	inj0 := e.Stats().Injections
	a0 := heapAllocBytes()
	env.tr.do(name, fn)
	env.runAlloc += heapAllocBytes() - a0
	env.runInjections += e.Stats().Injections - inj0
}

// watch attaches, in traced passes, the route sample to e.
func (env *passEnv) watch(e *sim.Engine) {
	if env.tr == nil {
		return
	}
	rs := &routeSample{g: e.Graph(), p: env.tr.probe("bench.routeSample", observerShift)}
	e.AddEventObserver(rs)
	env.routes = append(env.routes, rs)
}

// addEngine adds a finished engine's counters to the pass totals.
func (env *passEnv) addEngine(e *sim.Engine) {
	st, lp := e.Stats(), e.Leaps()
	env.eng.steps += st.Steps
	env.eng.hops += st.Sends
	env.eng.injections += st.Injections
	env.eng.leapWindows += lp.Windows
	env.eng.leapSteps += lp.Steps
}

// passResult is one measured pass.
type passResult struct {
	traced bool
	wall   float64
	setup  float64
	cpu    float64
	alloc  float64
	objs   float64
	gcCPU  float64
	gcN    float64
	rss    float64 // peak resident set size during the pass
	host   float64 // factor from host to reference seconds (calib.go)
	env    *passEnv
}

// Run executes the configured run and returns its report.
func Run(cfg Config) (*Report, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(Workloads(), ", "))
	}
	if cfg.MinPasses < 1 {
		cfg.MinPasses = 1
	}
	var input any
	if w.prepare != nil {
		var err error
		if input, err = w.prepare(cfg); err != nil {
			return nil, err
		}
	}

	var passes []passResult
	var ref []unitResult // outcomes of the first pass, the reference
	rep := &Report{Workload: w.name}
	fail := func(unit string, err error) {
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s/%s: %v", w.name, unit, err))
		}
	}
	var task *refTask // nil: no probe, host seconds
	if !w.unscaled {
		task = newRefTask()
	}
	start := time.Now()
	doPass := func(traced bool) {
		env := &passEnv{cfg: cfg}
		if traced {
			env.tr = newTracer()
		}
		startPass()
		var probe *hostProbe
		if task != nil && !traced { // the probe's rounds would land in the spans
			probe = startProbe(task)
		}
		h0 := readHost()
		env.tr.do("workload:"+w.name, func() {
			// A panic outside the units (in set-up) counts as one failed
			// unit; the units it cut short are not attempted.
			defer func() {
				if r := recover(); r != nil {
					env.units = append(env.units, unitResult{name: "set-up", err: fmt.Errorf("panic: %v", r)})
				}
			}()
			w.pass(env, input)
		})
		h1 := readHost()
		host, busy := 1.0, 0.0
		if probe != nil {
			host, busy = probe.finish(task)
		}
		peak := passPeakRSS()
		passes = append(passes, passResult{
			traced: traced,
			wall:   h1.wall.Sub(h0.wall).Seconds() - busy,
			setup:  env.setup.Seconds(),
			cpu:    h1.cpu - h0.cpu - busy,
			alloc:  float64(h1.allocBytes - h0.allocBytes),
			objs:   float64(h1.allocObjs - h0.allocObjs),
			gcCPU:  h1.gcCPU - h0.gcCPU,
			gcN:    float64(h1.gcCycles - h0.gcCycles),
			rss:    peak,
			host:   host,
			env:    env,
		})
		for i := range env.units {
			u := &env.units[i]
			if u.err == nil && u.check != nil {
				u.err = safeCheck(u.check)
			}
			u.check = nil // let the pass's engines go
			if u.err == nil && ref != nil {
				if i >= len(ref) || ref[i].name != u.name || !reflect.DeepEqual(ref[i].outcome, u.outcome) {
					u.err = fmt.Errorf("outcome differs from the first pass (traced=%v)", traced)
				}
			}
			fail(u.name, u.err)
		}
		if ref == nil {
			ref = env.units
		}
		env.units = nil
	}
	// A pass (a pair when traced) starts while the budget still holds
	// one more of the last length.
	var last time.Duration
	more := func(n int) bool {
		return n < cfg.MinPasses || (time.Since(start)+last).Seconds() <= cfg.Seconds
	}
	for n := 0; more(n); n++ {
		t := time.Now()
		if cfg.Trace {
			// Untraced and traced passes alternate, each pair in the
			// other order than the last, so host drift hits both alike.
			doPass(n%2 == 1)
			doPass(n%2 == 0)
		} else {
			doPass(false)
		}
		last = time.Since(t)
	}
	rep.HostFactor = median(collect(passes, false, func(p passResult) float64 { return p.host }))
	for _, p := range passes {
		if p.traced {
			rep.Traced++
		} else {
			rep.Passes++
		}
	}
	if cfg.Trace {
		rep.Metrics = layerMetrics(passes)
		ns, err := routeCheckNs(passes)
		fail("route-probe", err)
		rep.Metrics["graph.route_check_ns"] = Metric{ns, "ns"}
		rep.Untraced = endToEndMetrics(passes)
		rep.TracedWall = mean(collect(passes, true, func(p passResult) float64 { return p.wall }))
		if cfg.SpansPath != "" {
			if err := writeSpans(cfg.SpansPath, passes); err != nil {
				return nil, err
			}
		}
	} else {
		rep.Metrics = endToEndMetrics(passes)
		if rep.Failed == 0 { // a failing set-up is not repeated outside the passes
			rep.Metrics["setup_s"] = Metric{setupMedian(w, input, cfg, passes), "s"}
		}
	}
	return rep, nil
}

// minSetupSamples is the number of set-ups setup_s is the median of
// when set-up is cheap (under maxExtraSetup): a run then repeats the
// set-up alone, each time from a freed heap like the passes, beyond its
// passes. One set-up of a millisecond varies by a third from sample to
// sample (page faults after the heap is returned to the OS); medians of
// 101 samples still spread by up to 0.19 from run to run, medians of
// 1001 by 0.05 or less, at a cost of at most about 2.5 s a run.
const (
	minSetupSamples = 1001
	maxExtraSetup   = 10 * time.Millisecond
	setupsPerRound  = 4
)

// setupMedian returns the median set-up of the run in reference
// seconds: a scaled pass's set-up by the pass's host factor, and, when
// set-up is cheap, extra set-ups by a factor of their own, from a round
// of the reference task run between every setupsPerRound of them (the
// probe does not run beside them: a round inside a set-up of a
// millisecond would be most of it).
func setupMedian(w *workload, input any, cfg Config, passes []passResult) float64 {
	samples := collect(passes, false, func(p passResult) float64 { return p.setup * p.host })
	if median(samples) >= maxExtraSetup.Seconds() {
		return median(samples)
	}
	if w.unscaled {
		// Those are host seconds (no probe ran). Set-up is work the
		// host's load does move, unlike remark1's audit: its host-second
		// medians sat at 0.22 or 0.35 ms from run to run. Only the scaled
		// extra set-ups count.
		samples = nil
	}
	task := newRefTask()
	var extra, rounds []float64
	for len(samples)+len(extra) < minSetupSamples {
		if len(extra)%setupsPerRound == 0 {
			rounds = append(rounds, task.round())
		}
		env := &passEnv{cfg: cfg, setupOnly: true}
		startPass()
		w.pass(env, input)
		extra = append(extra, env.setup.Seconds())
	}
	host := refRound / mean(rounds)
	for _, x := range extra {
		samples = append(samples, x*host)
	}
	return median(samples)
}

func safeCheck(check func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in check: %v", r)
		}
	}()
	return check()
}

func writeSpans(path string, passes []passResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, p := range passes {
		if p.traced {
			if err := p.env.tr.writeJSONL(f); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return f.Close()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// collect maps f over the passes of one kind.
func collect(passes []passResult, traced bool, f func(p passResult) float64) []float64 {
	var out []float64
	for _, p := range passes {
		if p.traced == traced {
			out = append(out, f(p))
		}
	}
	return out
}

// endToEndMetrics reports the medians over untraced passes, each pass's
// times scaled to reference seconds by its host factor.
func endToEndMetrics(passes []passResult) map[string]Metric {
	med := func(f func(p passResult) float64) float64 { return median(collect(passes, false, f)) }
	return map[string]Metric{
		"wall_ref_s":     {med(func(p passResult) float64 { return p.wall * p.host }), "s"},
		"setup_s":        {med(func(p passResult) float64 { return p.setup * p.host }), "s"},
		"cpu_ref_s":      {med(func(p passResult) float64 { return p.cpu * p.host }), "s"},
		"hops_per_ref_s": {med(func(p passResult) float64 { return float64(p.env.eng.hops) / (p.wall * p.host) }), "1/s"},
		"alloc_bytes":    {med(func(p passResult) float64 { return p.alloc }), "B"},
		"alloc_objects":  {med(func(p passResult) float64 { return p.objs }), "count"},
		"peak_rss_bytes": {med(func(p passResult) float64 { return p.rss }), "B"},
	}
}

// runSpans are the engine run calls: the spans whose self time is the
// engine's own (sim) time once adversary and observer time is taken out.
var runSpans = []string{"sim.RunLeapUntil", "sim.Run", "stability.Run", "scenario.Built.Run"}

// selfBuckets maps each per-layer self-time metric to the spans it sums.
// Together with trace.other_self_s they partition a traced pass's wall
// time.
var selfBuckets = []struct {
	metric string
	spans  []string
}{
	{"sim.self_s", runSpans},
	{"adversary.prestep_s", []string{"adversary.PreStep"}},
	{"adversary.inject_s", []string{"adversary.Inject"}},
	{"adversary.rerouter_s", []string{"adversary.Rerouter"}},
	{"adversary.recorder_s", []string{"adversary.ScheduleRecorder"}},
	{"adversary.audit_s", []string{"adversary.ValidateRecording"}},
	{"obs.meter_s", []string{"obs.Meter", "obs.Meter.Finish"}},
	{"obs.sampler_s", []string{"obs.Sampler"}},
	{"scenario.parse_s", []string{"scenario.Parse"}},
	{"scenario.build_s", []string{"scenario.Build"}},
	{"scenario.checkpoint_s", []string{"scenario.Checkpoint"}},
	{"scenario.decode_s", []string{"scenario.DecodeCheckpoint"}},
	{"scenario.restore_s", []string{"scenario.Restore"}},
	{"core.setup_s", []string{"core.NewInstability"}},
}

// SelfTimeMetrics names the per-layer self-time metrics that together
// partition a traced pass's wall time (trace.wall_s).
func SelfTimeMetrics() []string {
	names := []string{"trace.other_self_s"}
	for _, b := range selfBuckets {
		names = append(names, b.metric)
	}
	return names
}

// layerMetrics reports per-layer numbers as means over traced passes
// (means keep the self-time partition of the wall time exact).
func layerMetrics(passes []passResult) map[string]Metric {
	m := map[string]Metric{}
	per := map[string][]float64{}
	units := map[string]string{}
	add := func(name, unit string, v float64) {
		per[name] = append(per[name], v)
		units[name] = unit
	}
	for _, p := range passes {
		if !p.traced {
			continue
		}
		env := p.env
		dur, self := env.tr.selfTimes()
		sum := func(tab map[string]float64, names ...string) float64 {
			s := 0.0
			for _, n := range names {
				s += tab[n]
			}
			return s
		}
		named := map[string]bool{}
		for _, b := range selfBuckets {
			v := sum(self, b.spans...)
			add(b.metric, "s", v)
			for _, s := range b.spans {
				named[s] = true
			}
		}
		other := 0.0
		for name, v := range self {
			if !named[name] {
				other += v
			}
		}
		add("trace.other_self_s", "s", other)
		add("trace.wall_s", "s", env.tr.topLevelSeconds())

		e := env.eng
		reroutes := int64(0)
		for _, rs := range env.routes {
			reroutes += rs.reroutes
		}
		add("sim.run_s", "s", sum(dur, runSpans...))
		add("sim.steps", "count", float64(e.steps))
		add("sim.hops", "count", float64(e.hops))
		add("sim.injections", "count", float64(e.injections))
		add("sim.self_ns_per_hop", "ns", ratio(sum(self, runSpans...)*1e9, float64(e.hops)))
		add("sim.leap_windows", "count", float64(e.leapWindows))
		add("sim.leap_step_frac", "ratio", ratio(float64(e.leapSteps), float64(e.steps)))
		add("sim.alloc_bytes_per_injection", "B", ratio(float64(env.runAlloc), float64(env.runInjections)))
		add("adversary.reroutes", "count", float64(reroutes))
		add("adversary.ns_per_injection", "ns", ratio(self["adversary.Inject"]*1e9, float64(env.tr.injected)))
		add("adversary.audit_ns_per_injection", "ns", ratio(self["adversary.ValidateRecording"]*1e9, float64(env.recorded)))
		add("graph.route_checks", "count", float64(e.injections+reroutes))
		add("core.cycle_s", "s", dur["core.cycle"])
		add("core.record_s", "s", dur["core.record"])
		add("scenario.run_s", "s", dur["scenario.Built.Run"])
		add("scenario.parse_bytes_per_s", "B/s", ratio(float64(env.parsedBytes), self["scenario.Parse"]))
		add("scenario.checkpoint_bytes", "B", float64(env.ckptBytes))
		add("runtime.gc_cpu_frac", "ratio", ratio(p.gcCPU, p.cpu))
		add("runtime.gc_cycles", "count", p.gcN)
	}
	for name, vs := range per {
		m[name] = Metric{mean(vs), units[name]}
	}
	untraced := median(collect(passes, false, func(p passResult) float64 { return p.wall }))
	traced := median(collect(passes, true, func(p passResult) float64 { return p.wall }))
	m["trace.overhead_frac"] = Metric{ratio(traced, untraced) - 1, "ratio"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// routeCheckNs times graph.IsSimplePath over the routes sampled in the
// traced passes, outside any timed pass: ns per call, median of 5
// rounds of at least 20 ms. Every sampled route was accepted by the
// engine, so one that fails validation is an error.
func routeCheckNs(passes []passResult) (float64, error) {
	var sets []*routeSample
	for _, p := range passes {
		if p.traced {
			sets = append(sets, p.env.routes...)
		}
	}
	for _, rs := range sets {
		for _, route := range rs.routes {
			if !rs.g.IsSimplePath(route) {
				return 0, fmt.Errorf("sampled route %v is not a simple path", route)
			}
		}
	}
	var rounds []float64
	for r := 0; r < 5; r++ {
		n := 0
		t := time.Now()
		for time.Since(t) < 20*time.Millisecond {
			for _, rs := range sets {
				for _, route := range rs.routes {
					routeOK = rs.g.IsSimplePath(route)
				}
				n += len(rs.routes)
			}
			if n == 0 {
				return 0, fmt.Errorf("no routes sampled")
			}
		}
		rounds = append(rounds, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(rounds), nil
}

// routeOK keeps the timed IsSimplePath calls from being optimized away.
var routeOK bool
