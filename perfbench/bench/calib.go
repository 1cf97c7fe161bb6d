package bench

import "time"

// The host this benchmark runs on is a shared VM whose speed comes and
// goes within seconds (a busy neighbour, stolen cycles, contention for
// the shared caches): the same pass takes up to half as long again from
// one minute to the next, its CPU time with it. So every untraced pass
// of a scaled workload (all but remark1, see workload.unscaled) runs a
// host probe beside it, and its times are reported in reference
// seconds: host seconds scaled by how fast the host ran a fixed
// reference task during that very pass.
//
// The reference task uses none of the repository's code, so no change
// to the simulator moves it. It is shaped like the workloads' inner
// loops: short routes checked for repeated nodes through a small map.
// The probe runs one round of it (about 0.7 ms) every probeEvery in a
// goroutine of its own. The process runs with GOMAXPROCS 1, so the
// round preempts the pass and runs on the same thread and core: it
// samples the host exactly where the pass runs, about 3 % of the time.
// Over a pass the mean round follows the pass's own slowdown closely
// (correlation 0.9 to 0.98 across passes on the reference host).

const (
	// probeEvery is the probe's period.
	probeEvery = 20 * time.Millisecond
	// refRound is a typical round of the reference task on the
	// reference host (the 2-vCPU VM of README.md's numbers): a pass's
	// host factor is refRound over its mean round.
	refRound = 700e-6
)

// refTask is the reference task's fixed input.
type refTask struct {
	routes [][]int32
	seen   map[int32]int32
}

func newRefTask() *refTask {
	t := &refTask{seen: make(map[int32]int32, 64)}
	x := uint64(88172645463325252)
	for k := 0; k < 1024; k++ {
		r := make([]int32, 4+x%24)
		for i := range r {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			r[i] = int32(x % 512)
		}
		t.routes = append(t.routes, r)
	}
	return t
}

// round runs the task once and returns its seconds. It allocates
// nothing.
func (t *refTask) round() float64 {
	start := time.Now()
	repeats := int32(0)
	for _, r := range t.routes {
		clear(t.seen)
		for i, v := range r {
			if _, ok := t.seen[v]; ok {
				repeats++
			}
			t.seen[v] = int32(i)
		}
	}
	refSink = repeats
	return time.Since(start).Seconds()
}

// refSink keeps the task's result live.
var refSink int32

// hostProbe runs rounds of the reference task every probeEvery until
// stopped.
type hostProbe struct {
	stop   chan struct{}
	done   chan struct{}
	rounds []float64
}

func startProbe(t *refTask) *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.rounds = append(p.rounds, t.round())
			}
		}
	}()
	return p
}

// finish stops the probe and returns the host factor of the interval it
// ran in and the seconds its rounds took. An interval too short for a
// tick gets one round, run now and not counted as busy.
func (p *hostProbe) finish(t *refTask) (factor, busy float64) {
	close(p.stop)
	<-p.done
	for _, r := range p.rounds {
		busy += r
	}
	if len(p.rounds) == 0 {
		p.rounds = append(p.rounds, t.round())
	}
	return refRound / mean(p.rounds), busy
}
