// Checkpoint/restore support for the resumable adversaries: each
// implements sim.CheckpointableAdversary by extracting its dynamic
// state (pacer positions, cursors, RNG stream position, admission
// history) and restoring it onto a freshly constructed instance built
// from the same specification. Static configuration — stream specs,
// recordings, phase programs, rates — is deliberately NOT serialized:
// the construction is the source of truth and restore refuses
// mismatches it can detect (seed, stream count, phase count).
//
// All RestoreState implementations validate hostile payloads with
// errors, never panics: they are reachable from fuzzed checkpoint
// documents via Engine.Restore.
package adversary

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"

	"aqt/internal/graph"
	"aqt/internal/sim"
)

// Adversary state kinds (sim.AdversaryState.Kind). "nop" is claimed by
// sim.NopAdversary.
const (
	KindScript   = "script"
	KindBurst    = "burst"
	KindReplay   = "replay"
	KindSequence = "sequence"
	KindRandomWR = "randomwr"
)

// MaxRandomDraws bounds the RNG fast-forward a RandomWR restore will
// perform (the math/rand source state is not exportable, so restore
// replays the draw count from the seed). The default admits ~10^6-step
// random-adversary runs with plenty of margin; the checkpoint fuzz
// harness lowers it so hostile draw counts cannot stall an exec.
// Atomic because fuzz seed execution may interleave with parallel
// tests restoring checkpoints.
var MaxRandomDraws atomic.Int64

func init() { MaxRandomDraws.Store(1 << 32) }

// countingSource wraps a rand.Source, counting Int63 draws so the
// stream position is serializable. It intentionally does not implement
// rand.Source64: RandomWR only ever draws via Intn, which reaches the
// source through Int63 alone, so the value stream is unchanged.
type countingSource struct {
	src rand.Source
	n   int64
}

func (s *countingSource) Int63() int64 { s.n++; return s.src.Int63() }
func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// encodeState marshals a kind-specific payload.
func encodeState(kind string, v interface{}) (sim.AdversaryState, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return sim.AdversaryState{}, fmt.Errorf("%s state: %v", kind, err)
	}
	return sim.AdversaryState{Kind: kind, Data: b}, nil
}

// decodeState checks the kind tag and strictly unmarshals the payload.
func decodeState(kind string, st sim.AdversaryState, v interface{}) error {
	if st.Kind != kind {
		return fmt.Errorf("adversary state kind %q, want %q", st.Kind, kind)
	}
	if len(st.Data) == 0 {
		return fmt.Errorf("%s state: missing payload", kind)
	}
	dec := json.NewDecoder(bytes.NewReader(st.Data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s state: %v", kind, err)
	}
	if dec.More() {
		return fmt.Errorf("%s state: trailing data", kind)
	}
	return nil
}

// --- Script ---

type scriptStreamState struct {
	Index int   `json:"index"` // AddStream order, stable across compaction
	Ticks int64 `json:"ticks"`
	Sent  int64 `json:"sent"`
	Count int64 `json:"count,omitempty"`
}

type scriptState struct {
	Added   int                 `json:"added"`
	Streams []scriptStreamState `json:"streams,omitempty"`
}

// CheckpointState implements sim.CheckpointableAdversary. Streams that
// exhausted their budget and were compacted away are represented by
// absence; a Script with a PreStep hook refuses (closures do not
// serialize).
func (s *Script) CheckpointState() (sim.AdversaryState, error) {
	if s.pre != nil {
		return sim.AdversaryState{}, fmt.Errorf("script with a PreStep hook is not checkpointable")
	}
	ss := scriptState{Added: s.added}
	for _, rs := range s.streams {
		ss.Streams = append(ss.Streams, scriptStreamState{
			Index: rs.idx,
			Ticks: rs.pacer.Ticks(),
			Sent:  rs.pacer.Emitted(),
			Count: rs.count,
		})
	}
	return encodeState(KindScript, ss)
}

// RestoreState implements sim.CheckpointableAdversary: s must be a
// freshly constructed Script over the same stream specifications.
// Streams absent from the state were exhausted before the checkpoint
// and are compacted away immediately.
func (s *Script) RestoreState(_ *sim.Engine, st sim.AdversaryState) error {
	var ss scriptState
	if err := decodeState(KindScript, st, &ss); err != nil {
		return err
	}
	if ss.Added != s.added {
		return fmt.Errorf("script state: %d streams added in checkpoint, %d in target", ss.Added, s.added)
	}
	prev := -1
	for _, sst := range ss.Streams {
		if sst.Index <= prev || sst.Index >= s.added {
			return fmt.Errorf("script state: stream index %d not strictly increasing within [0,%d)", sst.Index, s.added)
		}
		prev = sst.Index
		if sst.Ticks < 0 || sst.Sent < 0 || sst.Count < 0 {
			return fmt.Errorf("script state: negative counters in stream %d", sst.Index)
		}
	}
	j, n := 0, 0
	for _, rs := range s.streams {
		if j < len(ss.Streams) && ss.Streams[j].Index == rs.idx {
			sst := ss.Streams[j]
			if sst.Sent > rs.pacer.Budget() {
				return fmt.Errorf("script state: stream %d sent %d exceeds budget %d", sst.Index, sst.Sent, rs.pacer.Budget())
			}
			rs.pacer.Restore(sst.Ticks, sst.Sent)
			rs.count = sst.Count
			s.streams[n] = rs
			n++
			j++
		}
		// Not in the state: exhausted and compacted before the
		// checkpoint — drop it here too.
	}
	if j != len(ss.Streams) {
		return fmt.Errorf("script state: stream index %d has no matching stream in the target", ss.Streams[j].Index)
	}
	s.streams = s.streams[:n]
	return nil
}

// --- BurstScript ---

type burstState struct {
	Sent  []int64 `json:"sent,omitempty"`
	LastT int64   `json:"last_t,omitempty"`
}

// CheckpointState implements sim.CheckpointableAdversary.
func (b *BurstScript) CheckpointState() (sim.AdversaryState, error) {
	bs := burstState{LastT: b.lastT}
	if b.sent != nil {
		bs.Sent = append([]int64(nil), b.sent...)
	}
	return encodeState(KindBurst, bs)
}

// RestoreState implements sim.CheckpointableAdversary: b must be a
// freshly constructed BurstScript over the same streams.
func (b *BurstScript) RestoreState(_ *sim.Engine, st sim.AdversaryState) error {
	var bs burstState
	if err := decodeState(KindBurst, st, &bs); err != nil {
		return err
	}
	if bs.LastT < 0 {
		return fmt.Errorf("burst state: negative last_t %d", bs.LastT)
	}
	if bs.Sent != nil && len(bs.Sent) != len(b.streams) {
		return fmt.Errorf("burst state: %d sent counters for %d streams", len(bs.Sent), len(b.streams))
	}
	for i, sent := range bs.Sent {
		if sent < 0 || (b.streams[i].Budget >= 0 && sent > b.streams[i].Budget) {
			return fmt.Errorf("burst state: stream %d sent %d outside [0,%d]", i, sent, b.streams[i].Budget)
		}
	}
	b.lastT = bs.LastT
	b.sent = nil
	if bs.Sent != nil {
		b.sent = append([]int64(nil), bs.Sent...)
	}
	return nil
}

// --- Replay ---

type replayState struct {
	Cursor int   `json:"cursor,omitempty"`
	LastT  int64 `json:"last_t,omitempty"`
}

// CheckpointState implements sim.CheckpointableAdversary. The
// recording itself is construction, not state: only the monotone
// cursor and clock cache are carried.
func (rp *Replay) CheckpointState() (sim.AdversaryState, error) {
	return encodeState(KindReplay, replayState{Cursor: rp.cursor, LastT: rp.lastT})
}

// RestoreState implements sim.CheckpointableAdversary: rp must be a
// freshly constructed Replay over the same recording.
func (rp *Replay) RestoreState(_ *sim.Engine, st sim.AdversaryState) error {
	var rs replayState
	if err := decodeState(KindReplay, st, &rs); err != nil {
		return err
	}
	if rs.Cursor < 0 || rs.Cursor > len(rp.steps) {
		return fmt.Errorf("replay state: cursor %d outside [0,%d]", rs.Cursor, len(rp.steps))
	}
	if rs.LastT < 0 {
		return fmt.Errorf("replay state: negative last_t %d", rs.LastT)
	}
	rp.cursor = rs.Cursor
	rp.lastT = rs.LastT
	return nil
}

// --- Sequence ---

type sequenceState struct {
	Cur     int                 `json:"cur"`
	Entered bool                `json:"entered,omitempty"`
	Until   *int64              `json:"until,omitempty"`
	Inner   *sim.AdversaryState `json:"inner,omitempty"`
}

// CheckpointState implements sim.CheckpointableAdversary. The current
// phase's inner adversary must itself be checkpointable. Restoring
// re-runs the phase's Enter hook, so checkpointing a Sequence is only
// sound when Enter is effect-free on the engine (the scenario compiler
// emits exactly such phases); the saved Until horizon is re-applied
// after Enter, so horizon variables assigned by Enter stay exact.
func (q *Sequence) CheckpointState() (sim.AdversaryState, error) {
	qs := sequenceState{Cur: q.cur}
	if q.cur < len(q.phases) {
		ph := &q.phases[q.cur]
		if ph.adv != nil {
			qs.Entered = true
			if ph.Until != nil {
				u := *ph.Until
				qs.Until = &u
			}
			inner, ok := ph.adv.(sim.CheckpointableAdversary)
			if !ok {
				return sim.AdversaryState{}, fmt.Errorf("sequence phase %q adversary %T is not checkpointable", ph.Name, ph.adv)
			}
			ist, err := inner.CheckpointState()
			if err != nil {
				return sim.AdversaryState{}, fmt.Errorf("sequence phase %q: %v", ph.Name, err)
			}
			qs.Inner = &ist
		}
	}
	return encodeState(KindSequence, qs)
}

// RestoreState implements sim.CheckpointableAdversary: q must be a
// freshly constructed Sequence over the same phase program, and e must
// already carry the restored engine state (Enter hooks may read the
// clock and queues). Phase-entry side channels (Annotate markers, the
// OnPhaseChange callback) are NOT re-fired: they happened in the
// original run.
func (q *Sequence) RestoreState(e *sim.Engine, st sim.AdversaryState) error {
	var qs sequenceState
	if err := decodeState(KindSequence, st, &qs); err != nil {
		return err
	}
	if qs.Cur < 0 || qs.Cur > len(q.phases) {
		return fmt.Errorf("sequence state: cur %d outside [0,%d]", qs.Cur, len(q.phases))
	}
	if qs.Entered && qs.Cur >= len(q.phases) {
		return fmt.Errorf("sequence state: entered=true past the last phase")
	}
	if qs.Entered != (qs.Inner != nil) {
		return fmt.Errorf("sequence state: entered=%v but inner state present=%v", qs.Entered, qs.Inner != nil)
	}
	q.cur = qs.Cur
	if !qs.Entered {
		return nil
	}
	ph := &q.phases[q.cur]
	if ph.Enter != nil {
		ph.adv = ph.Enter(e)
	}
	if ph.adv == nil {
		ph.adv = sim.NopAdversary{}
	}
	inner, ok := ph.adv.(sim.CheckpointableAdversary)
	if !ok {
		return fmt.Errorf("sequence state: phase %q adversary %T is not checkpointable", ph.Name, ph.adv)
	}
	if err := inner.RestoreState(e, *qs.Inner); err != nil {
		return fmt.Errorf("sequence phase %q: %v", ph.Name, err)
	}
	if ph.Until != nil && qs.Until != nil {
		*ph.Until = *qs.Until
	}
	return nil
}

// --- RandomWR ---

type randomRingState struct {
	Edge  graph.EdgeID `json:"edge"`
	Times []int64      `json:"times"`
}

type randomState struct {
	Seed  int64             `json:"seed"`
	Draws int64             `json:"draws,omitempty"`
	Rings []randomRingState `json:"rings,omitempty"`
}

// CheckpointState implements sim.CheckpointableAdversary: the seed,
// the RNG stream position (draw count) and the per-edge admission
// history, oldest first. Per-step scratch and the visited-generation
// stamps are not state — they reset equivalently.
func (a *RandomWR) CheckpointState() (sim.AdversaryState, error) {
	rs := randomState{Seed: a.seed, Draws: a.src.n}
	for eid := range a.rings {
		n := int(a.count[eid])
		if n == 0 {
			continue
		}
		ring := a.rings[eid]
		times := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			times = append(times, ring[(int(a.head[eid])+i)%len(ring)])
		}
		rs.Rings = append(rs.Rings, randomRingState{Edge: graph.EdgeID(eid), Times: times})
	}
	return encodeState(KindRandomWR, rs)
}

// RestoreState implements sim.CheckpointableAdversary: a must be a
// freshly constructed RandomWR with the same seed; the RNG is replayed
// from the seed by the recorded draw count (bounded by
// MaxRandomDraws).
func (a *RandomWR) RestoreState(_ *sim.Engine, st sim.AdversaryState) error {
	var rs randomState
	if err := decodeState(KindRandomWR, st, &rs); err != nil {
		return err
	}
	if rs.Seed != a.seed {
		return fmt.Errorf("randomwr state: seed %d, target constructed with %d", rs.Seed, a.seed)
	}
	if max := MaxRandomDraws.Load(); rs.Draws < 0 || rs.Draws > max {
		return fmt.Errorf("randomwr state: draw count %d outside [0,%d]", rs.Draws, max)
	}
	prev := graph.EdgeID(-1)
	for i, ring := range rs.Rings {
		if ring.Edge <= prev || int(ring.Edge) >= len(a.rings) {
			return fmt.Errorf("randomwr state: rings[%d] edge %d not strictly increasing within [0,%d)", i, ring.Edge, len(a.rings))
		}
		prev = ring.Edge
		if len(ring.Times) == 0 {
			return fmt.Errorf("randomwr state: rings[%d] empty (omit empty rings)", i)
		}
		if int64(len(ring.Times)) > a.bound {
			return fmt.Errorf("randomwr state: rings[%d] holds %d admissions, bound is %d", i, len(ring.Times), a.bound)
		}
		for j := 1; j < len(ring.Times); j++ {
			if ring.Times[j] < ring.Times[j-1] {
				return fmt.Errorf("randomwr state: rings[%d] times not sorted", i)
			}
		}
	}
	// Rebuild the RNG at the recorded stream position.
	a.src.src = rand.NewSource(a.seed)
	a.src.n = 0
	a.rng = rand.New(a.src)
	for i := int64(0); i < rs.Draws; i++ {
		a.src.Int63()
	}
	// Reset admission history, then install the recorded one.
	for eid := range a.rings {
		a.head[eid], a.count[eid] = 0, 0
	}
	for _, ring := range rs.Rings {
		a.rings[ring.Edge] = append([]int64(nil), ring.Times...)
		a.head[ring.Edge] = 0
		a.count[ring.Edge] = int32(len(ring.Times))
	}
	a.gen = 0
	for i := range a.visited {
		a.visited[i] = 0
	}
	return nil
}

// --- WindowValidator ---

// EdgeUsage is one edge's recorded injection times (sorted).
type EdgeUsage struct {
	Edge  graph.EdgeID `json:"edge"`
	Times []int64      `json:"times"`
}

// UsageState is the serializable injection history of a validator,
// sorted by edge.
type UsageState []EdgeUsage

// UsageState extracts the validator's recorded per-edge injection
// times (copies, sorted) for checkpointing. The validator itself is
// not an adversary, so this rides the observer-state side of a
// checkpoint (see internal/scenario).
func (wv *WindowValidator) UsageState() UsageState {
	edges := wv.sorted()
	us := make(UsageState, len(edges))
	for i, e := range edges {
		us[i] = EdgeUsage{Edge: e, Times: append([]int64(nil), wv.times[e]...)}
	}
	return us
}

// RestoreUsage overwrites the validator's injection history with a
// previously extracted state.
func (wv *WindowValidator) RestoreUsage(us UsageState) error {
	prev := graph.EdgeID(-1)
	for i, eu := range us {
		if eu.Edge <= prev {
			return fmt.Errorf("window state: usage[%d] edge %d not strictly increasing", i, eu.Edge)
		}
		prev = eu.Edge
		if len(eu.Times) == 0 {
			return fmt.Errorf("window state: usage[%d] empty (omit idle edges)", i)
		}
		for j := 1; j < len(eu.Times); j++ {
			if eu.Times[j] < eu.Times[j-1] {
				return fmt.Errorf("window state: usage[%d] times not sorted", i)
			}
		}
	}
	wv.usage = newUsage()
	for _, eu := range us {
		wv.times[eu.Edge] = append([]int64(nil), eu.Times...)
	}
	return nil
}
