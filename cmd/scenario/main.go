// Command scenario validates, runs and emits declarative scenario
// files (see internal/scenario and the README's "Scenario files"
// section).
//
//	scenario validate file.json...          strict validation, line-precise errors
//	scenario run [-workers n] file.json...  build + run + deterministic report
//	scenario emit [-dir scenarios] [id...]  serialize the hand-wired experiments
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"aqt/internal/obs"
	"aqt/internal/scenario"
	"aqt/internal/stability"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: scenario validate file.json...\n")
	fmt.Fprintf(w, "       scenario run [-workers n] file.json...\n")
	fmt.Fprintf(w, "       scenario emit [-dir scenarios] [id...]\n")
	fmt.Fprintf(w, "emittable ids: %v\n", scenario.EmitIDs())
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "validate":
		return cmdValidate(args[1:], stdout, stderr)
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "emit":
		return cmdEmit(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "scenario: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func cmdValidate(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "scenario validate: no files")
		return 2
	}
	bad := 0
	for _, f := range files {
		if _, err := scenario.Load(f); err != nil {
			fmt.Fprintln(stderr, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "ok\t%s\n", f)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runResult is one file's rendered report; rendering happens inside
// the worker, printing in input order afterwards, so the byte output
// is independent of the worker count.
type runResult struct {
	report string
	failed bool
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	every := fs.Int64("checkpoint-every", 0, "write a checkpoint every N steps (0 = off)")
	ckptDir := fs.String("checkpoint-dir", "checkpoints", "directory for -checkpoint-every files (<spec name>.ckpt.json, overwritten per segment)")
	restore := fs.String("restore", "", "resume a single scenario from this checkpoint file (one input file only)")
	serve := fs.String("serve", "", "serve live telemetry (/metrics /series /trace /healthz /debug/pprof) on this address while running (one input file only)")
	serveHold := fs.Bool("serve-hold", false, "with -serve: keep serving the final state after the run until killed")
	sampleEvery := fs.Int64("sample-every", 0, "with -serve: sampling stride for the telemetry sampler attached to the run (0 = auto ~512 samples)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "scenario run: no files")
		return 2
	}
	if *restore != "" && len(files) != 1 {
		fmt.Fprintln(stderr, "scenario run: -restore takes exactly one scenario file")
		return 2
	}
	if (*serveHold || *sampleEvery > 0) && *serve == "" {
		fmt.Fprintln(stderr, "scenario run: -serve-hold and -sample-every require -serve")
		return 2
	}
	if *serve != "" {
		if len(files) != 1 {
			fmt.Fprintln(stderr, "scenario run: -serve takes exactly one scenario file")
			return 2
		}
		if *every > 0 {
			if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		return cmdRunServe(files[0], *serve, *serveHold, *sampleEvery, *restore, *every, *ckptDir, stdout, stderr)
	}
	if *every > 0 {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	results := stability.SweepGrid(files, func(path string) runResult {
		b, err := scenario.BuildFile(path)
		if err != nil {
			return runResult{report: err.Error() + "\n", failed: true}
		}
		if *restore != "" {
			data, err := os.ReadFile(*restore)
			if err != nil {
				return runResult{report: "scenario run: " + err.Error() + "\n", failed: true}
			}
			cp, err := scenario.DecodeCheckpoint(*restore, data)
			if err != nil {
				return runResult{report: err.Error() + "\n", failed: true}
			}
			if err := b.Restore(cp); err != nil {
				return runResult{report: "scenario run: " + err.Error() + "\n", failed: true}
			}
		}
		var out scenario.Outcome
		switch {
		case *every > 0:
			dest := filepath.Join(*ckptDir, sanitizeName(b.Spec.Name)+".ckpt.json")
			out, err = b.RunCheckpointed(b.Spec.Run.Mode, *every, func(cp *scenario.Checkpoint, step int64) error {
				return os.WriteFile(dest, cp.Encode(), 0o644)
			})
			if err != nil {
				return runResult{report: "scenario run: " + err.Error() + "\n", failed: true}
			}
		default:
			out = b.Run()
		}
		var buf bytes.Buffer
		b.WriteReport(&buf, out)
		return runResult{report: buf.String(), failed: !out.OK()}
	}, *workers)
	bad := 0
	for i, gr := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if gr.Panic != "" {
			fmt.Fprintf(stdout, "%s: PANIC: %s\n", gr.Point, gr.Panic)
			bad++
			continue
		}
		fmt.Fprint(stdout, gr.Value.report)
		if gr.Value.failed {
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// cmdRunServe runs exactly one scenario with an embedded telemetry
// server attached. Serve-only observers fill whatever the spec does
// not configure — a meter so /metrics always has families to expose,
// and a sampler to drive the publish cadence — but stay out of Built,
// so checkpoints still match the spec's observer set exactly. Results
// are unchanged either way (leap windows are exact by construction),
// only the leap window census and per-step cost can differ from an
// unserved run.
func cmdRunServe(path, addr string, hold bool, sampleEvery int64, restore string, every int64, ckptDir string, stdout, stderr io.Writer) int {
	b, err := scenario.BuildFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	meter := b.Meter
	serveOnlyMeter := meter == nil
	if serveOnlyMeter {
		meter = obs.NewMeter(nil)
		b.Engine.AddObserver(meter)
	}
	sam := b.Sampler
	if sam == nil {
		ev := sampleEvery
		if ev <= 0 {
			if ev = b.Spec.Run.Steps / 512; ev < 1 {
				ev = 1
			}
		}
		sam = obs.NewSampler(obs.SamplerConfig{Every: ev, Meter: meter})
		sam.Attach(b.Engine)
	}
	reg := meter.Registry()
	srv := obs.NewServer()
	publish := func() {
		srv.PublishTelemetry(b.Engine.Now(), reg, sam, b.Spans, nil)
	}
	sam.OnSample = publish
	got, err := srv.Start(addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "telemetry: serving on http://%s\n", got)
	publish()
	if restore != "" {
		data, err := os.ReadFile(restore)
		if err != nil {
			fmt.Fprintln(stderr, "scenario run: "+err.Error())
			return 1
		}
		cp, err := scenario.DecodeCheckpoint(restore, data)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := b.Restore(cp); err != nil {
			fmt.Fprintln(stderr, "scenario run: "+err.Error())
			return 1
		}
	}
	var out scenario.Outcome
	switch {
	case every > 0:
		dest := filepath.Join(ckptDir, sanitizeName(b.Spec.Name)+".ckpt.json")
		out, err = b.RunCheckpointed(b.Spec.Run.Mode, every, func(cp *scenario.Checkpoint, step int64) error {
			return os.WriteFile(dest, cp.Encode(), 0o644)
		})
		if err != nil {
			fmt.Fprintln(stderr, "scenario run: "+err.Error())
			return 1
		}
	default:
		out = b.Run()
	}
	if serveOnlyMeter {
		meter.Finish(b.Engine)
	}
	publish()
	b.WriteReport(stdout, out)
	if hold {
		fmt.Fprintln(stderr, "telemetry: run finished; holding server until killed")
		select {}
	}
	srv.Close()
	if !out.OK() {
		return 1
	}
	return 0
}

// sanitizeName maps a spec's display name to a safe file stem.
func sanitizeName(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "scenario"
	}
	return string(out)
}

func cmdEmit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "scenarios", "output directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ids := fs.Args()
	if len(ids) == 0 {
		ids = scenario.EmitIDs()
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	results := stability.SweepGrid(ids, scenario.Emit, 0)
	for _, gr := range results {
		if gr.Panic != "" {
			fmt.Fprintf(stderr, "emit %s: PANIC: %s\n", gr.Point, gr.Panic)
			return 1
		}
		em := gr.Value
		path := filepath.Join(*dir, em.ID+".json")
		if err := os.WriteFile(path, em.Spec.Encode(), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote\t%s\t(%s, %d steps)\n", path, em.Spec.Name, em.Spec.Run.Steps)
	}
	return 0
}
