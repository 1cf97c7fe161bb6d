package scenario

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestModesObserveAlike holds the run modes to one observation
// contract: "quiet" is an alias of "step", so every observer a spec
// configures sees the whole run under step, quiet and leap alike, and
// a post-run check that reads an observer fails the same way under
// all three. Each row edits the quickstart spec and verifies the
// outcome of every mode against the step run.
func TestModesObserveAlike(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "quickstart.json")
	cases := []struct {
		name  string
		edit  func(s *Spec)
		check func(t *testing.T, b *Built, out Outcome)
	}{
		{
			name: "max_backlog",
			edit: func(s *Spec) { s.Checks.MaxBacklog = 1 },
			check: func(t *testing.T, _ *Built, out Outcome) {
				want := []string{"max_backlog: peak 3 > 1"}
				if !reflect.DeepEqual(out.Failures, want) {
					t.Errorf("failures = %q, want %q", out.Failures, want)
				}
			},
		},
		{
			name: "sampler",
			edit: func(s *Spec) { s.Run.Observers = append(s.Run.Observers, ObsSampler) },
			check: func(t *testing.T, b *Built, _ Outcome) {
				for _, ser := range b.Sampler.Series() {
					if len(ser.Points) == 0 {
						t.Errorf("sampler series %q is empty", ser.Name)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref *Built
			for _, mode := range []string{ModeStep, ModeQuiet, ModeLeap} {
				s := parseSpecFile(t, path)
				tc.edit(s)
				s.Run.Mode = mode
				b := buildFresh(t, s)
				out := b.Run()
				if out.Mode != mode {
					t.Errorf("%s: outcome labelled %q", mode, out.Mode)
				}
				tc.check(t, b, out)
				if ref == nil {
					ref = b
					continue
				}
				requireSameObservers(t, mode, ref, b)
			}
		})
	}
}
