package sim

import (
	"strings"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
)

// TestRecorderMaxSamplesMillionSteps closes the ROADMAP item on the
// stride-1 Recorder's unbounded memory: a million-step run with
// MaxSamples set must keep the retained series bounded and uniformly
// spaced while the lifetime peaks stay exact — compared against an
// unbounded coarse-stride twin watching the same engine.
func TestRecorderMaxSamplesMillionSteps(t *testing.T) {
	const steps = 1_000_000
	g := graph.Line(1)
	e := New(g, policy.FIFO{}, InjectFunc(func(e *Engine) []packet.Injection {
		// One packet per step keeps the queue busy; a 50-packet burst at
		// step 600_007 sets a lifetime peak on a step no coarse sample
		// will land on.
		n := 1
		if e.Now() == 600_007 {
			n = 50
		}
		inj := make([]packet.Injection, n)
		for i := range inj {
			inj[i] = packet.InjNamed(g, "e1")
		}
		return inj
	}))
	bounded := NewRecorder(1)
	bounded.MaxSamples = 1024
	coarse := NewRecorder(4096) // unbounded, far off the spike step
	e.AddObserver(bounded)
	e.AddObserver(coarse)
	e.Run(steps)

	if got := len(bounded.Samples()); got > 1024 {
		t.Errorf("retained %d samples, MaxSamples is 1024", got)
	}
	eff := bounded.EffectiveStride()
	if eff <= 1 || eff&(eff-1) != 0 {
		t.Errorf("EffectiveStride() = %d, want a power of two > 1", eff)
	}
	for _, s := range bounded.Samples() {
		if s.T%eff != 0 {
			t.Errorf("sample at t=%d not aligned to effective stride %d", s.T, eff)
		}
	}
	// Peaks are tracked every step, independent of sampling: both
	// recorders must agree, and both must have seen the burst.
	if bounded.PeakTotal() != coarse.PeakTotal() {
		t.Errorf("PeakTotal %d (bounded) != %d (coarse twin)", bounded.PeakTotal(), coarse.PeakTotal())
	}
	if bounded.PeakTotal() < 50 {
		t.Errorf("PeakTotal = %d, the step-600007 burst was missed", bounded.PeakTotal())
	}
	be, bp := bounded.PeakBuffer()
	ce, cp := coarse.PeakBuffer()
	if be != ce || bp != cp {
		t.Errorf("PeakBuffer (%v,%d) != coarse twin (%v,%d)", be, bp, ce, cp)
	}
	// The series still covers the whole run.
	if last := bounded.Last(); last.T < steps-eff {
		t.Errorf("last retained sample at t=%d, run ended at %d", last.T, steps)
	}
}

// TestRecorderMaxSamplesUnsetIsUnbounded pins the historical default.
func TestRecorderMaxSamplesUnsetIsUnbounded(t *testing.T) {
	g := graph.Line(1)
	rec := NewRecorder(1)
	e := New(g, policy.FIFO{}, nil)
	e.AddObserver(rec)
	e.SeedN(1, packet.InjNamed(g, "e1"))
	e.Run(5000)
	if got := len(rec.Samples()); got != 5000 {
		t.Errorf("unbounded recorder kept %d samples, want 5000", got)
	}
	if rec.EffectiveStride() != 1 {
		t.Errorf("EffectiveStride() = %d, want 1", rec.EffectiveStride())
	}
}

// TestAsciiPlotSpikeVisible: a single-sample spike must appear in the
// plot. Point-sampling one value per column used to skip it entirely
// unless it landed on a sampled index; per-column max cannot.
func TestAsciiPlotSpikeVisible(t *testing.T) {
	rec := &Recorder{}
	for i := 0; i < 200; i++ {
		v := int64(1)
		if i == 101 { // not on any width-20 point-sample index
			v = 100
		}
		rec.samples = append(rec.samples, Sample{T: int64(i + 1), TotalQueued: v})
	}
	plot := rec.AsciiPlot(20, 5)
	rows := strings.Split(plot, "\n")
	// rows[0] is the caption; rows[1] is the top band (the peak).
	if got := strings.Count(rows[1], "*"); got != 1 {
		t.Errorf("top plot row has %d stars, want the spike exactly once:\n%s", got, plot)
	}
	if !strings.Contains(plot, "peak 100") {
		t.Errorf("caption lost the peak:\n%s", plot)
	}
}
