// Command perfbench is the repository benchmark. It runs one workload per
// invocation in a child process of its own, checks every answer it
// measures against a Dijkstra oracle, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1); the
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. See README.md.
//
//	perfbench --workload solve-random-n256 --seed 1 --seconds 20 --trace 0
//	perfbench compare before.jsonl after.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"

	"congestapsp/pkg/apsp"
)

// workload is one benchmark input: a corpus scenario family and size (the
// seed comes from the command line) and how it is driven.
type workload struct {
	name   string
	family string
	n      int
	serve  bool // drive through the in-process daemon instead of Runners
	graphs int  // corpus graphs per run, solved in turn or served at once
}

var workloads = []workload{
	{name: "solve-random-n256", family: "random", n: 256, graphs: 4},
	{name: "serve-mixed-n64", family: "random", n: 64, serve: true, graphs: 8},
}

// scenario is the run's i-th graph: the family at seed*graphs+i, so the
// graphs of a run never overlap with those of another seed.
func (w workload) scenario(seed int64, i int) apsp.Scenario {
	return apsp.Scenario{Family: w.family, N: w.n, Seed: seed*int64(w.graphs) + int64(i)}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	child    bool
	out      string
}

// childTimeout bounds a child run; a run that has not finished by then is
// killed and reported as failed.
const childTimeout = 170 * time.Second

// scratchDir holds everything a run writes (daemon data dirs, span dumps),
// relative to the working directory.
const scratchDir = ".bench_build/perfbench"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.child {
		os.Exit(childMain(cfg))
	}
	os.Exit(parentMain(cfg))
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "scenario and request-stream seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.BoolVar(&cfg.child, "child", false, "run the workload in this process (set by the parent)")
	fs.StringVar(&cfg.out, "out", "", "append the full result record as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := findWorkload(cfg.workload); !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return cfg, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", cfg.trace)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	return cfg, nil
}

// parentMain runs the workload in a child process, so the child's own
// rusage gives the workload's peak RSS, then prints the report.
func parentMain(cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"-child"}, os.Args[1:]...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload process: %v\n", err)
		return 1
	}
	var rec record
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: decoding the workload's result: %v\n", err)
		return 1
	}
	if cfg.trace == 0 {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: no rusage for the workload process")
			return 1
		}
		rec.set("peak_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports KiB
	}
	rec.complete()
	if cfg.out != "" {
		if err := rec.appendTo(cfg.out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if err := rec.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// childMain runs the workload and writes its record as JSON to stdout.
func childMain(cfg config) int {
	w, _ := findWorkload(cfg.workload)
	rec := newRecord(cfg)
	var err error
	switch {
	case cfg.trace == 1:
		err = runTraced(cfg, w, rec)
	case w.serve:
		err = runServe(cfg, w, rec)
	default:
		err = runSolve(cfg, w, rec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// setPercentile records the q-quantile of xs under name, or fails the run
// when xs cannot support that percentile.
func setPercentile(rec *record, name string, xs []float64, q float64) error {
	v, err := percentile(xs, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rec.set(name, v, len(xs))
	return nil
}

// sampleSources picks k distinct vertices of an n-vertex graph, seeded.
func sampleSources(n, k int, seed int64) []int {
	if k > n {
		k = n
	}
	perm := newRand(seed, 0x5eed).Perm(n)[:k]
	sort.Ints(perm)
	return perm
}
