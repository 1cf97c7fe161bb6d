package sim

import (
	"fmt"
	"io"

	"aqt/internal/graph"
)

// Sample is one point of a recorded queue-size time series.
type Sample struct {
	T           int64
	TotalQueued int64
	MaxQueueLen int
}

// Recorder is an Observer that samples queue sizes every Stride steps
// (Stride <= 1 means every step) and tracks lifetime peaks.
type Recorder struct {
	Stride int64

	// MaxSamples, when > 0, bounds the retained series: whenever an
	// append would exceed it, the series is downsampled in place by
	// doubling the effective stride (a power-of-two factor on top of
	// Stride) and keeping only the samples aligned to it. Memory for a
	// million-step stride-1 probe is thus bounded while the series stays
	// uniformly spaced. PeakTotal/PeakBuffer are tracked every step
	// independently of sampling, so they remain exact. 0 = unbounded
	// (the historical behaviour).
	MaxSamples int

	samples  []Sample
	factor   int64 // power-of-two downsampling factor (0 or 1 = none)
	peakTot  int64
	peakMax  int
	peakEdge graph.EdgeID
}

// NewRecorder returns a recorder sampling every stride steps.
func NewRecorder(stride int64) *Recorder {
	if stride < 1 {
		stride = 1
	}
	return &Recorder{Stride: stride}
}

// OnStep implements Observer. Peaks (total and single-buffer) are
// tracked every step regardless of Stride — a between-sample spike
// must not vanish from PeakBuffer — while the series itself is only
// appended on sampled steps. Per-step cost is O(1): the max length
// comes from the engine's incremental counter, and the achieving edge
// is resolved only when a new peak is set.
func (r *Recorder) OnStep(e *Engine) {
	tot := e.TotalQueued()
	if tot > r.peakTot {
		r.peakTot = tot
	}
	l := e.MaxQueued()
	if l > r.peakMax {
		eid, _ := e.MaxQueueLen()
		r.peakMax, r.peakEdge = l, eid
	}
	if e.Now()%r.effStride() != 0 {
		return
	}
	r.appendSample(Sample{T: e.Now(), TotalQueued: tot, MaxQueueLen: l})
}

// effStride returns the current sampling stride. Clamp here, not just
// in NewRecorder: the Stride field doc promises "Stride <= 1 means
// every step", so a literal-constructed Recorder{} must sample every
// step rather than divide by zero.
func (r *Recorder) effStride() int64 {
	stride := r.Stride
	if stride < 1 {
		stride = 1
	}
	if r.factor > 1 {
		stride *= r.factor
	}
	return stride
}

// appendSample appends s and re-establishes the MaxSamples bound.
func (r *Recorder) appendSample(s Sample) {
	r.samples = append(r.samples, s)
	for r.MaxSamples > 0 && len(r.samples) > r.MaxSamples {
		r.downsample()
	}
}

// AcceptLeap implements LeapObserver: both leaped regimes have
// closed-form queue-size trajectories, so the Recorder accepts both.
func (r *Recorder) AcceptLeap(LeapKind) bool { return true }

// OnLeap implements LeapObserver by reconstructing the per-step
// observations OnStep would have made across the window. Fired before
// the engine mutates, so the occupancy histogram still describes the
// window's start. Inside an idle window every step observes zeros;
// inside a drain window every nonempty buffer shrinks by exactly one
// per step, so the total at dt steps in is Σ_{l>dt} (l−dt)·edges(l)
// and the max is curMax−dt — both read off the histogram.
func (r *Recorder) OnLeap(e *Engine, info LeapInfo) {
	type lvl struct{ l, cnt int64 }
	var levels []lvl
	var curMax int64
	if info.Kind == LeapDrain {
		e.EachQueueLen(func(l, edges int) {
			if l > 0 {
				levels = append(levels, lvl{int64(l), int64(edges)})
			}
		})
		curMax = int64(e.MaxQueued())
	}
	totAt := func(dt int64) int64 {
		var tot int64
		for _, lv := range levels {
			if lv.l > dt {
				tot += (lv.l - dt) * lv.cnt
			}
		}
		return tot
	}
	maxAt := func(dt int64) int64 {
		if curMax > dt {
			return curMax - dt
		}
		return 0
	}
	// Queue sizes are nonincreasing inside a static window, so the only
	// candidate peaks the per-step path would have seen are at the first
	// step (dt = 1).
	if tot := totAt(1); tot > r.peakTot {
		r.peakTot = tot
	}
	if l := maxAt(1); int(l) > r.peakMax {
		// Every nonempty buffer shrinks by one in the first step, so the
		// lowest edge holding curMax packets now is the lowest edge
		// holding curMax−1 packets then.
		eid, _ := e.MaxQueueLen()
		r.peakMax, r.peakEdge = int(l), eid
	}
	// Sampled steps: every effective-stride multiple in (From, To]. The
	// stride is re-read after each append because appending may trigger
	// downsampling, exactly as the per-step path interleaves them.
	eff := r.effStride()
	for t := (info.From/eff + 1) * eff; t <= info.To; {
		dt := t - info.From
		r.appendSample(Sample{T: t, TotalQueued: totAt(dt), MaxQueueLen: int(maxAt(dt))})
		eff = r.effStride()
		t = (t/eff + 1) * eff
	}
}

// downsample doubles the effective stride and drops the samples no
// longer aligned to it, halving the retained series (up to alignment).
func (r *Recorder) downsample() {
	base := r.Stride
	if base < 1 {
		base = 1
	}
	if r.factor < 1 {
		r.factor = 1
	}
	r.factor *= 2
	eff := base * r.factor
	kept := r.samples[:0]
	for _, s := range r.samples {
		if s.T%eff == 0 {
			kept = append(kept, s)
		}
	}
	r.samples = kept
}

// EffectiveStride returns the spacing of retained samples: Stride times
// the current power-of-two downsampling factor (MaxSamples bounding).
func (r *Recorder) EffectiveStride() int64 { return r.effStride() }

// Samples returns the recorded series (shared slice; read-only).
func (r *Recorder) Samples() []Sample { return r.samples }

// PeakTotal returns the largest total queue observed at any step.
func (r *Recorder) PeakTotal() int64 { return r.peakTot }

// PeakBuffer returns the largest single-buffer occupancy observed at
// any step (not just sampled ones) and its edge.
func (r *Recorder) PeakBuffer() (graph.EdgeID, int) { return r.peakEdge, r.peakMax }

// Last returns the most recent sample (zero Sample if none).
func (r *Recorder) Last() Sample {
	if len(r.samples) == 0 {
		return Sample{}
	}
	return r.samples[len(r.samples)-1]
}

// WriteCSV writes the series as "t,total_queued,max_queue" rows.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t,total_queued,max_queue"); err != nil {
		return err
	}
	for _, s := range r.samples {
		if _, err := fmt.Fprintf(w, "%d,%d,%d\n", s.T, s.TotalQueued, s.MaxQueueLen); err != nil {
			return err
		}
	}
	return nil
}

// AsciiPlot renders the TotalQueued series as a crude fixed-size ASCII
// chart for terminal reports. width and height are clamped to sane
// minima. When several samples fall into one column the column shows
// their maximum — point-sampling one value per column would let a
// single-step spike vanish from the plot entirely.
func (r *Recorder) AsciiPlot(width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 3 {
		height = 3
	}
	if len(r.samples) == 0 {
		return "(no samples)\n"
	}
	var maxV int64 = 1
	for _, s := range r.samples {
		if s.TotalQueued > maxV {
			maxV = s.TotalQueued
		}
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = make([]byte, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	// Per-column max: every sample lands in exactly one column, so no
	// spike is lost. Columns without a sample of their own (fewer
	// samples than columns) fall back to the nearest-sample mapping.
	n := len(r.samples)
	colMax := make([]int64, width)
	colSet := make([]bool, width)
	for i, s := range r.samples {
		x := 0
		if n > 1 {
			x = i * (width - 1) / (n - 1)
		}
		if !colSet[x] || s.TotalQueued > colMax[x] {
			colSet[x], colMax[x] = true, s.TotalQueued
		}
	}
	for x := 0; x < width; x++ {
		v := colMax[x]
		if !colSet[x] {
			v = r.samples[x*(n-1)/max(width-1, 1)].TotalQueued
		}
		y := int(v * int64(height-1) / maxV)
		grid[height-1-y][x] = '*'
	}
	out := fmt.Sprintf("total queued (peak %d over %d samples)\n", maxV, len(r.samples))
	for _, row := range grid {
		out += string(row) + "\n"
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RecorderState is the serializable dynamic state of a Recorder:
// configuration (stride, bound), the retained sample series, the
// current downsampling factor and the exact running peaks. Restoring
// it onto a fresh Recorder reproduces the uninterrupted series —
// including future stride-doubling points, which depend on the
// retained sample count.
type RecorderState struct {
	Stride     int64        `json:"stride"`
	MaxSamples int          `json:"max_samples,omitempty"`
	Factor     int64        `json:"factor,omitempty"`
	PeakTotal  int64        `json:"peak_total,omitempty"`
	PeakMax    int          `json:"peak_max,omitempty"`
	PeakEdge   graph.EdgeID `json:"peak_edge"`
	Samples    []Sample     `json:"samples,omitempty"`
}

// CheckpointState extracts the recorder's state (samples are copied).
func (r *Recorder) CheckpointState() RecorderState {
	return RecorderState{
		Stride:     r.Stride,
		MaxSamples: r.MaxSamples,
		Factor:     r.factor,
		PeakTotal:  r.peakTot,
		PeakMax:    r.peakMax,
		PeakEdge:   r.peakEdge,
		Samples:    append([]Sample(nil), r.samples...),
	}
}

// RestoreState overwrites the recorder with a previously extracted
// state. Malformed state is rejected with an error, never a panic.
func (r *Recorder) RestoreState(st RecorderState) error {
	if st.Stride < 1 {
		return fmt.Errorf("recorder state: stride %d < 1", st.Stride)
	}
	if st.MaxSamples < 0 || st.Factor < 0 || st.PeakTotal < 0 || st.PeakMax < 0 {
		return fmt.Errorf("recorder state: negative field in %+v", st)
	}
	r.Stride = st.Stride
	r.MaxSamples = st.MaxSamples
	r.factor = st.Factor
	r.peakTot = st.PeakTotal
	r.peakMax = st.PeakMax
	r.peakEdge = st.PeakEdge
	r.samples = append(r.samples[:0], st.Samples...)
	return nil
}
