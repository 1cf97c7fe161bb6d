package adversary

import (
	"testing"

	"aqt/internal/graph"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// FuzzRandomWRWindow drives RandomWR's ring-buffered admission control
// with arbitrary (w, r, maxLen, seed, horizon) parameters and checks
// the execution against the independent WindowValidator (which records
// every injection and replays Definition 2.1 with a sliding scan): the
// (w,r) window constraint must never be violated by the timestamp-ring
// bookkeeping. Mirrors the buffer and rational fuzz harnesses.
func FuzzRandomWRWindow(f *testing.F) {
	f.Add(int64(7), int64(12), uint8(4), uint8(12), uint8(2), uint8(200), false)
	f.Add(int64(1), int64(1), uint8(1), uint8(1), uint8(1), uint8(50), true)
	f.Add(int64(99), int64(40), uint8(9), uint8(10), uint8(3), uint8(255), false)
	f.Fuzz(func(t *testing.T, seed, wRaw int64, num, den, maxLen, steps uint8, ring bool) {
		w := wRaw%64 + 1
		if w < 1 {
			w += 64 // wRaw negative
		}
		d := int64(den%16) + 1
		n := int64(num%16) + 1
		if n > d {
			n, d = d, n // keep the rate in (0, 1]
		}
		rate := rational.New(n, d)
		g := graph.Complete(4)
		if ring {
			g = graph.Ring(6)
		}
		gen := NewRandomWR(g, w, rate, int(maxLen%4)+1, seed)
		wv := NewWindowValidator(w, rate)
		e := sim.New(g, policy.FIFO{}, gen)
		e.AddObserver(wv)
		e.Run(int64(steps))
		if err := wv.Check(); err != nil {
			t.Fatalf("w=%d r=%v: ring admission violated the (w,r) window constraint: %v",
				w, rate, err)
		}
		if gen.bound >= 1 && int64(steps) >= 4*w && e.Injected() == 0 {
			t.Fatalf("w=%d r=%v bound=%d: generator admitted nothing over %d steps",
				w, rate, gen.bound, steps)
		}
	})
}
