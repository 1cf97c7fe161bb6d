package bench

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"time"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/sim"
)

// Wrapper calls are sampled: a probe times a call with probability
// 2^-shift, picked pseudo-randomly rather than periodically so that a
// hook whose cost follows a period (a sampler's every-k-th step) is not
// aliased, and charges it as 2^shift calls. Adversary calls are timed
// every time (shift 0): their cost is heavy-tailed (a Lemma 3.3 reroute
// step can cost a thousand quiet ones), and at two calls a step timing
// all of them is cheap. Observer hooks are many, and cheap, and even.
const (
	adversaryShift = 0
	observerShift  = 4
	// One wrapper call in 2^spanShift is also kept as a leaf span for
	// the span file; accounting uses the probe totals, not these.
	spanShift = 10
)

// span is one timed interval at a layer boundary, in nanoseconds since
// the tracer started. Child is the part of it covered by child spans
// and by the (estimated) wrapper calls made inside it. A leaf span is
// one sampled wrapper call, kept for the span file only.
type span struct {
	Name   string
	Parent int32
	Start  int64
	End    int64
	Child  int64
	Leaf   bool
}

// tracer records the spans of one traced pass in memory and owns the
// probes of its forwarding wrappers. The open stack gives each new span
// its parent. A nil *tracer is the untraced pass: every method is then
// a no-op or returns its argument unchanged.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int32
	probes   map[string]*probe
	active   *probe // innermost wrapper call in progress
	injected int64  // injections returned by wrapped Inject calls
}

func newTracer() *tracer { return &tracer{t0: time.Now(), probes: map[string]*probe{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// do runs fn inside a span named name, under the innermost open span.
// The span is closed even if fn panics (a failed unit).
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := int32(len(t.spans))
	parent, active, depth := t.parent(), t.active, len(t.open)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	t.open = append(t.open, id)
	defer func() {
		t.open, t.active = t.open[:depth], active
		s := &t.spans[id]
		s.End = t.now()
		if parent >= 0 {
			t.spans[parent].Child += s.End - s.Start
		}
	}()
	fn()
}

// selfTimes returns, per layer name, the summed duration and the summed
// self time in seconds. For a span, self time is its duration minus the
// time its children cover; for a wrapper boundary, it is the probe's
// estimated total minus the wrapper calls nested inside it. The self
// times add up to the duration of the top-level spans.
func (t *tracer) selfTimes() (dur, self map[string]float64) {
	dur = map[string]float64{}
	self = map[string]float64{}
	for _, s := range t.spans {
		if !s.Leaf {
			dur[s.Name] += float64(s.End-s.Start) / 1e9
			self[s.Name] += float64(s.End-s.Start-s.Child) / 1e9
		}
	}
	for name, p := range t.probes {
		dur[name] += p.total / 1e9
		self[name] += (p.total - p.nested) / 1e9
	}
	return dur, self
}

// topLevelSeconds is the summed duration of the spans without a parent:
// the traced pass as the tracer saw it.
func (t *tracer) topLevelSeconds() float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Parent < 0 && !s.Leaf {
			sum += float64(s.End-s.Start) / 1e9
		}
	}
	return sum
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, s := range t.spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"name\":%q,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"sampled\":%v}\n",
			i, s.Name, s.Parent, s.Start, s.End, s.Leaf)
	}
	return bw.Flush()
}

// probe accounts for the calls crossing one wrapper boundary.
type probe struct {
	tr     *tracer
	name   string
	shift  uint
	calls  int64
	total  float64 // estimated ns in this boundary's calls
	nested float64 // estimated ns of other wrapper calls made inside them
	rng    uint64  // xorshift64 state picking the timed calls
}

// call is one wrapper call in progress.
type call struct {
	start int64  // -1 when the call is not timed
	outer *probe // the wrapper call this one runs inside, if any
}

func (p *probe) enter() call {
	c := call{start: -1, outer: p.tr.active}
	p.tr.active = p
	p.calls++
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	if p.rng&(1<<p.shift-1) == 0 {
		c.start = p.tr.now()
	}
	return c
}

func (p *probe) exit(c call) {
	p.tr.active = c.outer
	if c.start < 0 {
		return
	}
	t := p.tr
	end := t.now()
	est := float64(end-c.start) * float64(int64(1)<<p.shift)
	p.total += est
	parent := t.parent()
	switch {
	case c.outer != nil:
		c.outer.nested += est
	case parent >= 0:
		t.spans[parent].Child += int64(est)
	}
	if p.rng&(1<<spanShift-1) == 0 {
		t.spans = append(t.spans, span{Name: p.name, Parent: parent, Start: c.start, End: end, Leaf: true})
	}
}

func (t *tracer) probe(name string, shift uint) *probe {
	p := t.probes[name]
	if p == nil {
		p = &probe{tr: t, name: name, shift: shift, rng: 0x9e3779b97f4a7c15}
		t.probes[name] = p
	}
	return p
}

// Adversary wrappers. advWrap forwards the two Adversary methods; the
// embedding types add exactly the optional capabilities (leap horizon,
// checkpointing) the wrapped adversary has, so the engine makes the
// same leap and checkpoint decisions with or without tracing.

type advWrap struct {
	inner    sim.Adversary
	pre, inj *probe
}

func (a *advWrap) PreStep(e *sim.Engine) {
	s := a.pre.enter()
	a.inner.PreStep(e)
	a.pre.exit(s)
}

func (a *advWrap) Inject(e *sim.Engine) []packet.Injection {
	s := a.inj.enter()
	out := a.inner.Inject(e)
	a.inj.exit(s)
	a.inj.tr.injected += int64(len(out))
	return out
}

type staticAdvWrap struct{ *advWrap }

func (a staticAdvWrap) StaticUntil() int64 {
	return a.inner.(sim.StaticAdversary).StaticUntil()
}

type ckptAdvWrap struct{ *advWrap }

func (a ckptAdvWrap) CheckpointState() (sim.AdversaryState, error) {
	return a.inner.(sim.CheckpointableAdversary).CheckpointState()
}

func (a ckptAdvWrap) RestoreState(e *sim.Engine, st sim.AdversaryState) error {
	return a.inner.(sim.CheckpointableAdversary).RestoreState(e, st)
}

type staticCkptAdvWrap struct{ *advWrap }

func (a staticCkptAdvWrap) StaticUntil() int64 {
	return a.inner.(sim.StaticAdversary).StaticUntil()
}

func (a staticCkptAdvWrap) CheckpointState() (sim.AdversaryState, error) {
	return a.inner.(sim.CheckpointableAdversary).CheckpointState()
}

func (a staticCkptAdvWrap) RestoreState(e *sim.Engine, st sim.AdversaryState) error {
	return a.inner.(sim.CheckpointableAdversary).RestoreState(e, st)
}

// adversary wraps a for a traced pass.
func (t *tracer) adversary(a sim.Adversary) sim.Adversary {
	if t == nil {
		return a
	}
	w := &advWrap{inner: a, pre: t.probe("adversary.PreStep", adversaryShift), inj: t.probe("adversary.Inject", adversaryShift)}
	_, static := a.(sim.StaticAdversary)
	_, ckpt := a.(sim.CheckpointableAdversary)
	var out sim.Adversary
	switch {
	case static && ckpt:
		out = staticCkptAdvWrap{w}
	case static:
		out = staticAdvWrap{w}
	case ckpt:
		out = ckptAdvWrap{w}
	default:
		out = w
	}
	mustSameInterfaces(a, out)
	return out
}

// Observer wrappers, one per observer type the benchmark attaches.
// Each forwards exactly the methods of the type it wraps.

type rerouterWrap struct {
	inner *adversary.Rerouter
	p     *probe
}

func (w *rerouterWrap) OnStep(e *sim.Engine) {
	s := w.p.enter()
	w.inner.OnStep(e)
	w.p.exit(s)
}

func (w *rerouterWrap) AcceptLeap(k sim.LeapKind) bool { return w.inner.AcceptLeap(k) }

func (w *rerouterWrap) OnLeap(e *sim.Engine, info sim.LeapInfo) {
	s := w.p.enter()
	w.inner.OnLeap(e, info)
	w.p.exit(s)
}

func (w *rerouterWrap) OnInject(t int64, p *packet.Packet) {
	s := w.p.enter()
	w.inner.OnInject(t, p)
	w.p.exit(s)
}

func (w *rerouterWrap) OnReroute(t int64, p *packet.Packet, old []graph.EdgeID) {
	s := w.p.enter()
	w.inner.OnReroute(t, p, old)
	w.p.exit(s)
}

type recorderWrap struct {
	inner *adversary.ScheduleRecorder
	p     *probe
}

func (w *recorderWrap) OnStep(e *sim.Engine) {
	s := w.p.enter()
	w.inner.OnStep(e)
	w.p.exit(s)
}

func (w *recorderWrap) OnInject(t int64, p *packet.Packet) {
	s := w.p.enter()
	w.inner.OnInject(t, p)
	w.p.exit(s)
}

func (w *recorderWrap) OnReroute(t int64, p *packet.Packet, old []graph.EdgeID) {
	s := w.p.enter()
	w.inner.OnReroute(t, p, old)
	w.p.exit(s)
}

type meterWrap struct {
	inner *obs.Meter
	p     *probe
}

func (w *meterWrap) OnStep(e *sim.Engine) {
	s := w.p.enter()
	w.inner.OnStep(e)
	w.p.exit(s)
}

func (w *meterWrap) OnAbsorb(t int64, p *packet.Packet) {
	s := w.p.enter()
	w.inner.OnAbsorb(t, p)
	w.p.exit(s)
}

func (w *meterWrap) OnDrop(t int64, eid graph.EdgeID, p *packet.Packet) {
	s := w.p.enter()
	w.inner.OnDrop(t, eid, p)
	w.p.exit(s)
}

func (w *meterWrap) AcceptLeap(k sim.LeapKind) bool { return w.inner.AcceptLeap(k) }

func (w *meterWrap) OnLeap(e *sim.Engine, info sim.LeapInfo) {
	s := w.p.enter()
	w.inner.OnLeap(e, info)
	w.p.exit(s)
}

type samplerWrap struct {
	inner *obs.Sampler
	p     *probe
}

func (w *samplerWrap) OnStep(e *sim.Engine) {
	s := w.p.enter()
	w.inner.OnStep(e)
	w.p.exit(s)
}

func (w *samplerWrap) AcceptLeap(k sim.LeapKind) bool { return w.inner.AcceptLeap(k) }

func (w *samplerWrap) OnLeap(e *sim.Engine, info sim.LeapInfo) {
	s := w.p.enter()
	w.inner.OnLeap(e, info)
	w.p.exit(s)
}

// observer wraps one of the observer types above for a traced pass.
func (t *tracer) observer(ob sim.Observer) sim.Observer {
	if t == nil {
		return ob
	}
	var out sim.Observer
	switch o := ob.(type) {
	case *adversary.Rerouter:
		out = &rerouterWrap{o, t.probe("adversary.Rerouter", observerShift)}
	case *adversary.ScheduleRecorder:
		out = &recorderWrap{o, t.probe("adversary.ScheduleRecorder", observerShift)}
	case *obs.Meter:
		out = &meterWrap{o, t.probe("obs.Meter", observerShift)}
	case *obs.Sampler:
		out = &samplerWrap{o, t.probe("obs.Sampler", observerShift)}
	default:
		panic(fmt.Sprintf("perfbench: no trace wrapper for observer %T", ob))
	}
	mustSameInterfaces(ob, out)
	return out
}

// engineInterfaces are the interfaces through which the engine
// dispatches to an adversary or observer, or asks it about leaping and
// checkpoints.
var engineInterfaces = []reflect.Type{
	iface[sim.Adversary](), iface[sim.StaticAdversary](), iface[sim.CheckpointableAdversary](),
	iface[sim.Observer](), iface[sim.InjectionObserver](), iface[sim.RerouteObserver](),
	iface[sim.AbsorptionObserver](), iface[sim.SendObserver](), iface[sim.MarkerObserver](),
	iface[sim.FailureObserver](), iface[sim.DropObserver](), iface[sim.LeapObserver](),
}

func iface[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// mustSameInterfaces panics unless wrapper w implements the same engine
// interfaces as the value it wraps: one that gained or lost one would
// change which hooks fire and which leap windows are accepted.
func mustSameInterfaces(inner, w any) {
	ti, tw := reflect.TypeOf(inner), reflect.TypeOf(w)
	for _, it := range engineInterfaces {
		if ti.Implements(it) != tw.Implements(it) {
			panic(fmt.Sprintf("perfbench: wrapper %v differs from %v on %v", tw, ti, it))
		}
	}
}

// routeSample is an event-only observer attached in traced passes. It
// counts reroutes and keeps a bounded sample of the routes the engine
// validated (injected and rerouted), for the route-validation probe.
// Event-only observers take no part in leap acceptance. Its hooks are
// timed by their own probe, which no layer metric names, so their cost
// lands in trace.other_self_s rather than in the engine's self time.
type routeSample struct {
	g        *graph.Graph
	p        *probe
	seen     int64
	reroutes int64
	routes   [][]graph.EdgeID
}

const maxSampledRoutes = 2048

func (r *routeSample) keep(route []graph.EdgeID) {
	c := r.p.enter()
	r.seen++
	if len(r.routes) < maxSampledRoutes && r.seen&63 == 1 {
		r.routes = append(r.routes, append([]graph.EdgeID(nil), route...))
	}
	r.p.exit(c)
}

func (r *routeSample) OnInject(_ int64, p *packet.Packet) { r.keep(p.Route) }

func (r *routeSample) OnReroute(_ int64, p *packet.Packet, _ []graph.EdgeID) {
	r.reroutes++
	r.keep(p.Route)
}
