// Package selftest is the benchmark's short self-test. It runs every
// workload BENCHMARK.json lists at reduced size, once untraced and once
// traced, and fails if an outcome check fails, if a metric
// BENCHMARK.json names is missing, extra or reported with another unit,
// if a traced self time is negative, or if the traced self times do not
// add up to the traced passes' measured wall time.
//
//	cd perfbench && go test ./selftest
package selftest

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aqt/perfbench/bench"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

const root = "../.."

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var names []string
	for _, w := range loadSpec(t).Workloads {
		names = append(names, w.Name)
	}
	if got := bench.Workloads(); !reflect.DeepEqual(got, names) {
		t.Fatalf("benchmark workloads %v, BENCHMARK.json lists %v", got, names)
	}
}

func TestSmallRuns(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			// Seconds 0: one pass, or one untraced + traced pair.
			rep, err := bench.Run(bench.Config{
				Workload: w.Name, Seed: 1, Trace: traced,
				MinPasses: 1, Small: true, Root: root,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d units failed: %v", w.Name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			checkMetrics(t, w.Name, rep.Metrics, want)
			if traced {
				checkSelfTimes(t, w.Name, rep)
			}
		}
	}
}

func checkMetrics(t *testing.T, workload string, got map[string]bench.Metric, want []metricSpec) {
	t.Helper()
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case g.Unit == "" || g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, g.Value)
		}
	}
	for name := range got {
		if !named[name] {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", workload, name)
		}
	}
}

// checkSelfTimes holds the traced run to its accounting: no layer's
// self time is negative (an over-estimate of sampled wrapper calls
// would make the enclosing span's negative), and the self times add up,
// within 1 %, to the traced passes' wall time as the pass loop measured
// it outside the tracer.
func checkSelfTimes(t *testing.T, workload string, rep *bench.Report) {
	t.Helper()
	sum := 0.0
	for _, name := range bench.SelfTimeMetrics() {
		v := rep.Metrics[name].Value
		if v < 0 {
			t.Errorf("%s: self time %s = %.9f s is negative", workload, name, v)
		}
		sum += v
	}
	if wall := rep.TracedWall; wall <= 0 || math.Abs(sum-wall) > 0.01*wall {
		t.Errorf("%s: self times sum to %.9f s, traced passes took %.9f s", workload, sum, wall)
	}
}
