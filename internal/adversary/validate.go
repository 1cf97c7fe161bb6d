package adversary

import (
	"fmt"
	"math/big"
	"slices"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// usage records, per edge, the times at which injected packets
// requiring that edge entered the system. It is the observer half both
// validators share. Reroutes also register the newly added edges at
// the original injection time of the packet, because the rate
// constraint of Definition 2.1 / the rate-r adversary is about the
// routes packets "have to follow" — after a reroute, the packet's
// route includes the new edges, attributed to its injection. Seeds
// (injections at t = 0) are not recorded; see RateValidator.
type usage struct {
	times map[graph.EdgeID][]int64
	marks []uint32 // generation stamps by EdgeID: add's per-call dedupe
	gen   uint32
}

func newUsage() *usage {
	return &usage{times: make(map[graph.EdgeID][]int64)}
}

// OnStep implements sim.Observer.
func (u *usage) OnStep(*sim.Engine) {}

// AcceptLeap implements sim.LeapObserver: a validator only records
// injections and reroutes, and static windows contain neither, so
// leaped windows of either kind carry nothing to record.
func (u *usage) AcceptLeap(sim.LeapKind) bool { return true }

// OnLeap implements sim.LeapObserver (nothing to record).
func (u *usage) OnLeap(*sim.Engine, sim.LeapInfo) {}

// OnInject implements sim.InjectionObserver.
func (u *usage) OnInject(t int64, p *packet.Packet) {
	if t != 0 {
		u.add(t, p.Route, nil)
	}
}

// OnReroute implements sim.RerouteObserver. The edges added by the
// reroute are charged to the packet's injection time.
func (u *usage) OnReroute(_ int64, p *packet.Packet, oldRoute []graph.EdgeID) {
	if p.InjectedAt != 0 {
		u.add(p.InjectedAt, p.Route, oldRoute)
	}
}

// add appends t to the times of every edge of route that is not in
// skip, once per edge (routes are simple anyway).
func (u *usage) add(t int64, route, skip []graph.EdgeID) {
	u.gen++
	if u.gen == 0 {
		// The stamps wrapped: clear them so no stale stamp can equal a
		// live generation.
		clear(u.marks)
		u.gen = 1
	}
	for _, e := range skip {
		u.mark(e)
	}
	for _, e := range route {
		if !u.mark(e) {
			u.times[e] = append(u.times[e], t)
		}
	}
}

// mark stamps e with the current generation, growing the stamps on
// demand, and reports whether e already carried it.
func (u *usage) mark(e graph.EdgeID) bool {
	if int(e) >= len(u.marks) {
		u.marks = append(u.marks, make([]uint32, int(e)+1-len(u.marks))...)
	}
	seen := u.marks[e] == u.gen
	u.marks[e] = u.gen
	return seen
}

// sorted sorts every edge's times and returns the edges in ascending
// EdgeID order, so a check reports the same violation on every run.
func (u *usage) sorted() []graph.EdgeID {
	edges := make([]graph.EdgeID, 0, len(u.times))
	for e, ts := range u.times {
		slices.Sort(ts)
		edges = append(edges, e)
	}
	slices.Sort(edges)
	return edges
}

// checkRate runs checkEdgeRate over every edge in ascending EdgeID
// order and returns the first violation.
func (u *usage) checkRate(rate rational.Rat) error {
	for _, e := range u.sorted() {
		if err := checkEdgeRate(e, u.times[e], rate); err != nil {
			return err
		}
	}
	return nil
}

// Violation describes one rate-constraint breach found by a validator.
type Violation struct {
	Edge   graph.EdgeID
	T1, T2 int64 // inclusive interval
	Count  int64 // packets requiring Edge injected in [T1,T2]
	Bound  int64 // allowed maximum
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("edge %d: %d packets injected in [%d,%d], bound %d",
		v.Edge, v.Count, v.T1, v.T2, v.Bound)
}

// RateValidator is an engine observer that records every injection and
// reroute and can afterwards verify the execution against the leaky-
// bucket rate-r adversary definition: for every edge e and every time
// interval I, the number of packets injected during I whose routes
// require e is at most ceil(r·|I|). The check is exact on every edge,
// in time linear in the recorded injections (see Check).
//
// Initial-configuration seeds (injections at t = 0) are excluded: the
// model treats the initial configuration separately (section 4 of the
// paper, Observation 4.4).
type RateValidator struct {
	Rate rational.Rat
	*usage
}

// NewRateValidator returns a validator for the given rate.
func NewRateValidator(rate rational.Rat) *RateValidator {
	return &RateValidator{Rate: rate, usage: newUsage()}
}

// Check verifies every interval on every edge exactly, with one O(k)
// prefix-minimum scan per edge of k recorded injections (checkEdgeRate).
// Edges are scanned in ascending EdgeID order, so when several violate
// the lowest is reported, and within an edge the reported interval is
// the one with the earliest start, then the earliest end. Returns nil
// when compliant.
func (rv *RateValidator) Check() error { return rv.checkRate(rv.Rate) }

// CheckAndNotify is Check, but a violation is first reported to e's
// FailureObservers (sim.Engine.NotifyFailure) so a registered flight
// recorder auto-dumps the event tail before the caller acts on the
// error. e may be nil.
func (rv *RateValidator) CheckAndNotify(e *sim.Engine) error {
	err := rv.Check()
	if err != nil && e != nil {
		e.NotifyFailure("rate validator: " + err.Error())
	}
	return err
}

// checkEdgeRate returns the first interval of ts — edge e's injection
// times, sorted — that breaks the leaky-bucket rate-r bound, or nil.
//
// With r = p/q in lowest terms, the interval [ts[i], ts[j]] carries
// j−i+1 packets against a bound of ceil(r·(ts[j]−ts[i]+1)). The count
// is an integer, so it exceeds the bound exactly when
// j−i ≥ r·(ts[j]−ts[i]+1), that is when a[j] − a[i] ≥ p for
// a[k] = q·k − p·(ts[k]−ts[0]). One forward pass that keeps the running
// minimum of a therefore decides compliance exactly, with no division
// and no extra memory. An edge whose a could leave int64 (q·k or
// p·(span+1) near 2^62), a rate r ≤ 0, and every violation go to
// rateWitness, which redoes the recurrence in math/big.
func checkEdgeRate(e graph.EdgeID, ts []int64, rate rational.Rat) error {
	if len(ts) == 0 {
		return nil
	}
	p, q := rate.Num(), rate.Den()
	// rateCompliant needs q·len(ts) and p·(span+1) below scanLimit.
	span := uint64(ts[len(ts)-1]) - uint64(ts[0])
	if p > 0 && int64(len(ts)) <= (scanLimit-1)/q && span < uint64((scanLimit-1)/p) && rateCompliant(ts, p, q) {
		return nil
	}
	return rateWitness(e, ts, p, q)
}

// scanLimit bounds q·len(ts) and p·(span+1) on rateCompliant's path,
// so every a[k] lies in (−2^62, 2^62) and a difference of two fits.
const scanLimit = 1 << 62

// rateCompliant is checkEdgeRate's hot path; it needs p > 0 and the
// scanLimit bounds.
func rateCompliant(ts []int64, p, q int64) bool {
	t0, lo := ts[0], int64(0)
	for k, t := range ts {
		a := q*int64(k) - p*(t-t0)
		if a-lo >= p {
			return false
		}
		lo = min(lo, a)
	}
	return true
}

// rateWitness is checkEdgeRate's exact cold path. It returns the
// violation a scan of every interval [ts[i], ts[j]] reports first —
// smallest i, then smallest j — or nil when ts is compliant, evaluating
// a[k] = q·k − p·ts[k] in math/big so any rate and times are exact.
func rateWitness(e graph.EdgeID, ts []int64, p, q int64) error {
	bp, bq := big.NewInt(p), big.NewInt(q)
	a := make([]big.Int, len(ts))
	var x big.Int
	for k, t := range ts {
		a[k].Mul(bq, x.SetInt64(int64(k)))
		a[k].Sub(&a[k], x.Mul(bp, x.SetInt64(t)))
	}
	// top[i] is the index of the largest a[j] with j ≥ i.
	top := make([]int, len(ts))
	top[len(ts)-1] = len(ts) - 1
	for i := len(ts) - 2; i >= 0; i-- {
		top[i] = top[i+1]
		if a[i].Cmp(&a[top[i]]) > 0 {
			top[i] = i
		}
	}
	for i := range ts {
		need := x.Add(&a[i], bp)
		if a[top[i]].Cmp(need) < 0 {
			continue
		}
		j := i
		for a[j].Cmp(need) < 0 {
			j++
		}
		// bound = ceil(p·w/q) = −floor(−p·w/q); Div floors for q > 0.
		w := new(big.Int).Sub(big.NewInt(ts[j]), big.NewInt(ts[i]))
		w.Add(w, big.NewInt(1)).Mul(w, bp).Neg(w).Div(w, bq).Neg(w)
		return Violation{Edge: e, T1: ts[i], T2: ts[j], Count: int64(j - i + 1), Bound: w.Int64()}
	}
	return nil
}

// EdgeInjections returns the recorded injection times for an edge
// (sorted copy), for tests and diagnostics.
func (rv *RateValidator) EdgeInjections(e graph.EdgeID) []int64 {
	rv.sorted()
	return append([]int64{}, rv.times[e]...)
}

// WindowValidator verifies Definition 2.1: a (w,r) adversary may, in
// every window of w consecutive steps, inject at most floor(r·w)
// packets requiring any single edge. Like RateValidator it observes
// the execution and answers at Check time.
type WindowValidator struct {
	W    int64
	Rate rational.Rat
	*usage
}

// NewWindowValidator returns a validator for a (w,r) adversary.
func NewWindowValidator(w int64, rate rational.Rat) *WindowValidator {
	if err := CheckWindow(w); err != nil {
		panic(err)
	}
	return &WindowValidator{W: w, Rate: rate, usage: newUsage()}
}

// Bound returns the per-window per-edge injection bound floor(r·w).
func (wv *WindowValidator) Bound() int64 { return wv.Rate.FloorMulInt(wv.W) }

// CheckAndNotify is Check with sim.Engine.NotifyFailure on violation,
// mirroring RateValidator.CheckAndNotify. e may be nil.
func (wv *WindowValidator) CheckAndNotify(e *sim.Engine) error {
	err := wv.Check()
	if err != nil && e != nil {
		e.NotifyFailure("window validator: " + err.Error())
	}
	return err
}

// Check verifies every w-window with a sliding two-pointer scan per
// edge — O(k) per edge — in ascending EdgeID order, so when several
// edges violate the lowest is reported. Returns nil when compliant.
func (wv *WindowValidator) Check() error {
	bound := wv.Bound()
	for _, e := range wv.sorted() {
		ts := wv.times[e]
		lo := 0
		for hi := range ts {
			for ts[hi]-ts[lo] >= wv.W {
				lo++
			}
			if count := int64(hi - lo + 1); count > bound {
				return Violation{Edge: e, T1: ts[lo], T2: ts[hi], Count: count, Bound: bound}
			}
		}
	}
	return nil
}
