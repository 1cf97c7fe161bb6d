package adversary

import (
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// quadraticRateScan is the reference for checkEdgeRate: it checks
// every interval [ts[i], ts[j]] of the sorted times, smallest i then
// smallest j, with the rate's own CeilMulInt. It is exact whenever
// CeilMulInt does not overflow (num·den and num·(span+1)/den well
// inside int64).
func quadraticRateScan(e graph.EdgeID, ts []int64, rate rational.Rat) error {
	for i := 0; i < len(ts); i++ {
		for j := i; j < len(ts); j++ {
			count := int64(j - i + 1)
			bound := rate.CeilMulInt(ts[j] - ts[i] + 1)
			if count > bound {
				return Violation{Edge: e, T1: ts[i], T2: ts[j], Count: count, Bound: bound}
			}
		}
	}
	return nil
}

// bigRateScan is quadraticRateScan evaluated in math/big, exact for
// any p/q and any int64 times.
func bigRateScan(e graph.EdgeID, ts []int64, p, q int64) error {
	r := big.NewRat(p, q)
	for i := 0; i < len(ts); i++ {
		for j := i; j < len(ts); j++ {
			w := new(big.Int).Sub(big.NewInt(ts[j]), big.NewInt(ts[i]))
			x := new(big.Rat).SetInt(w.Add(w, big.NewInt(1)))
			x.Mul(x, r)
			bound := new(big.Int).Neg(x.Num())
			bound.Div(bound, x.Denom()).Neg(bound) // ceil
			count := int64(j - i + 1)
			if big.NewInt(count).Cmp(bound) > 0 {
				return Violation{Edge: e, T1: ts[i], T2: ts[j], Count: count, Bound: bound.Int64()}
			}
		}
	}
	return nil
}

// referenceCheck runs quadraticRateScan over a validator's edges in
// ascending EdgeID order.
func referenceCheck(u *usage, rate rational.Rat) error {
	for _, e := range u.sorted() {
		if err := quadraticRateScan(e, u.times[e], rate); err != nil {
			return err
		}
	}
	return nil
}

// sameViolation fails t unless got and want are both nil or both the
// same Violation value.
func sameViolation(t *testing.T, label string, got, want error) {
	t.Helper()
	var gv, wv Violation
	gotV, wantV := errors.As(got, &gv), errors.As(want, &wv)
	if (got == nil) != (want == nil) || gotV != wantV || gv != wv {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
}

// pacedTimes returns the injection times of a rate-r pacer over steps
// 1..steps: a compliant list by construction.
func pacedTimes(rate rational.Rat, steps int64) []int64 {
	pc := rational.NewPacer(rate)
	var ts []int64
	for t := int64(1); t <= steps; t++ {
		for k := pc.Tick(); k > 0; k-- {
			ts = append(ts, t)
		}
	}
	return ts
}

// randomRateCase draws one sorted time list and rate from rng,
// covering duplicates, empty and single-element lists, r ≥ 1, r = 1/q
// with large q, paced (compliant) lists and perturbations of them.
func randomRateCase(rng *rand.Rand) ([]int64, rational.Rat) {
	q := rng.Int63n(12) + 1
	rate := rational.New(rng.Int63n(2*q)+1, q)
	var ts []int64
	switch rng.Intn(5) {
	case 0: // random gaps, often zero (duplicate times)
		t := rng.Int63n(50)
		for n := rng.Intn(40); n > 0; n-- {
			t += rng.Int63n(4)
			ts = append(ts, t)
		}
	case 1: // r = 1/q for large q, gaps straddling q
		q := []int64{1_000, 1_000_000, 1_000_000_000_000}[rng.Intn(3)]
		rate = rational.New(1, q)
		t := rng.Int63n(q)
		for n := rng.Intn(30); n > 0; n-- {
			t += q + rng.Int63n(5) - 3
			ts = append(ts, t)
		}
	case 2: // empty or single element
		if rng.Intn(2) == 0 {
			ts = []int64{rng.Int63n(1000)}
		}
	default: // paced at the rate, then maybe one extra packet
		ts = pacedTimes(rate, rng.Int63n(60)+1)
		if rng.Intn(2) == 0 && len(ts) > 0 {
			ts = append(ts, ts[rng.Intn(len(ts))]+rng.Int63n(3))
			slices.Sort(ts)
		}
	}
	return ts, rate
}

// TestRateScanMatchesQuadraticReference holds the linear scan — and its
// math/big cold path on its own — to the exact Violation the quadratic
// reference reports, on compliant and violating lists alike.
func TestRateScanMatchesQuadraticReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var compliant, violating int
	for it := 0; it < 20000; it++ {
		ts, rate := randomRateCase(rng)
		e := graph.EdgeID(rng.Intn(8))
		want := quadraticRateScan(e, ts, rate)
		sameViolation(t, "checkEdgeRate", checkEdgeRate(e, ts, rate), want)
		if len(ts) > 0 {
			sameViolation(t, "rateWitness", rateWitness(e, ts, rate.Num(), rate.Den()), want)
		}
		if want == nil {
			compliant++
		} else {
			violating++
		}
	}
	if compliant < 4000 || violating < 4000 {
		t.Fatalf("unbalanced cases: %d compliant, %d violating", compliant, violating)
	}
}

// TestRateScanOverflow covers rates and spans whose products leave
// int64 — p and q near 2^40, spans near 2^30 and beyond — against the
// math/big reference, on both sides of the scanLimit switch.
func TestRateScanOverflow(t *testing.T) {
	const p40 = int64(1) << 40
	type tc struct {
		name string
		p, q int64
		ts   []int64
	}
	cases := []tc{
		{"fast path at the limit", 1, 1, []int64{0, scanLimit - 2}},
		{"big path past the limit", 1, 1, []int64{0, scanLimit - 1}},
		{"span across zero", 1, 1, []int64{-scanLimit, scanLimit}},
		{"span across zero, duplicate", 1, 2, []int64{-scanLimit, scanLimit, scanLimit}},
		// Unguarded int64 arithmetic wraps a[k] here and the running
		// minimum misses the violation on [0,1].
		{"wraparound would hide a violation", 4905731886345446546, 8268403247082337415, []int64{0, 1, 1, 3}},
	}
	rng := rand.New(rand.NewSource(40))
	for it := 0; it < 300; it++ {
		p := p40 - rng.Int63n(1<<20)
		q := p40 + rng.Int63n(1<<20)
		if rng.Intn(2) == 0 {
			q = 2*p40 + rng.Int63n(1<<20) // r near 1/2
		}
		r := rational.New(p, q)
		ts := []int64{rng.Int63n(1 << 20)}
		for n := rng.Intn(60); n > 0; n-- {
			last := ts[len(ts)-1]
			switch rng.Intn(4) {
			case 0:
				ts = append(ts, last) // duplicate
			case 1:
				ts = append(ts, last+1+rng.Int63n(2))
			default:
				ts = append(ts, last+rng.Int63n(1<<30)/30)
			}
		}
		cases = append(cases, tc{"random near 2^40", r.Num(), r.Den(), ts})
	}
	var violating int
	for _, c := range cases {
		want := bigRateScan(5, c.ts, c.p, c.q)
		sameViolation(t, c.name, checkEdgeRate(5, c.ts, rational.New(c.p, c.q)), want)
		if want != nil {
			violating++
		}
	}
	if violating == 0 || violating == len(cases) {
		t.Fatalf("%d of %d overflow cases violate; want a mix", violating, len(cases))
	}
}

// FuzzRateScan: the linear scan reports exactly what the quadratic
// reference does on arbitrary sorted lists and rates.
func FuzzRateScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3}, uint16(1), uint16(2), int64(5))
	f.Add([]byte{}, uint16(3), uint16(4), int64(0))
	f.Add([]byte{7}, uint16(5), uint16(3), int64(-9))
	f.Add([]byte{0, 0, 0}, uint16(0), uint16(1), int64(1)) // r = 0: every packet violates
	f.Fuzz(func(t *testing.T, gaps []byte, p, q uint16, t0 int64) {
		if len(gaps) > 256 || t0 > 1<<40 || t0 < -1<<40 {
			return
		}
		rate := rational.New(int64(p), int64(q)+1)
		ts := make([]int64, len(gaps))
		for i, g := range gaps {
			t0 += int64(g % 32)
			ts[i] = t0
		}
		sameViolation(t, "fuzz", checkEdgeRate(1, ts, rate), quadraticRateScan(1, ts, rate))
	})
}

// TestCheckMatchesQuadraticReferenceOnSmallRuns compares Check on an
// engine run with the quadratic reference, at the stream's own rate
// (compliant) and below it (violating).
func TestCheckMatchesQuadraticReferenceOnSmallRuns(t *testing.T) {
	g := graph.Line(1)
	for _, rate := range []rational.Rat{rational.New(2, 5), rational.New(1, 3)} {
		s := NewScript(Stream{Start: 1, Rate: rational.New(2, 5), Budget: 60, Route: rt(g, "e1")})
		rv := NewRateValidator(rate)
		e := sim.New(g, fifo(), s)
		e.AddObserver(rv)
		e.Run(200)
		want := referenceCheck(rv.usage, rate)
		sameViolation(t, rate.String(), rv.Check(), want)
		if (want == nil) != rate.Eq(rational.New(2, 5)) {
			t.Errorf("r=%v: reference verdict %v", rate, want)
		}
	}
}

// TestChecksReportLowestEdge: with several violating edges, every
// checker reports the lowest EdgeID, on every call.
func TestChecksReportLowestEdge(t *testing.T) {
	g := graph.Line(16)
	rate := rational.New(1, 2)
	rv := NewRateValidator(rate)
	wv := NewWindowValidator(4, rate)
	var rec []RecordedInjection
	// Three packets at one step on e3, e5, ..., e15 break both bounds
	// (1 per interval of one step, 2 per window of 4).
	for i := 3; i <= 15; i += 2 {
		route := rt(g, "e"+strconv.Itoa(i))
		for k := 0; k < 3; k++ {
			p := &packet.Packet{Route: route}
			rv.OnInject(7, p)
			wv.OnInject(7, p)
			rec = append(rec, RecordedInjection{Step: 7, Route: route})
		}
	}
	lowest := g.MustEdge("e3")
	for call := 0; call < 50; call++ {
		for name, err := range map[string]error{
			"RateValidator.Check":   rv.Check(),
			"WindowValidator.Check": wv.Check(),
			"ValidateRecording":     ValidateRecording(rec, rate, 0, 0),
		} {
			var v Violation
			if !errors.As(err, &v) || v.Edge != lowest {
				t.Fatalf("call %d: %s = %v, want a violation on edge %d", call, name, err, lowest)
			}
		}
	}
}
