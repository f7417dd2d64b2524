package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// metricSpec names one reported metric, its unit, and whether a higher
// value is the better one.
type metricSpec struct {
	name, unit string
	higher     bool
}

// endToEnd is what a user of the library or the daemon pays; every
// workload reports all of them with --trace 0 (see README.md for what
// each means on each workload). Times are CPU times, not wall times: on a
// shared virtual machine the host takes the vCPUs away for minutes at a
// time, which stretches wall times but not the CPU time the process used.
var endToEnd = []metricSpec{
	{"setup_s", "s", false},
	{"cpu_ms_per_op", "ms", false},
	{"peak_rss_mb", "MB", false},
}

// stageNames are the pipeline stages as Stats.Stages names them.
var stageNames = []string{
	"step1-csssp", "step2-blocker", "step3-insssp", "step4-bcast",
	"step5-closure", "step6-qsink", "step7-extend", "step8-lastedge",
}

// perLayer is what the traced run reports, layer by layer; every workload
// reports all of them with --trace 1 (zero where the layer does no work
// on that workload, e.g. the serve.* family on the solve workloads).
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"congest.rounds_simulated", "count", false},
		{"congest.rounds_charged", "count", false},
		{"congest.messages", "count", false},
		{"congest.ns_per_round", "ns", false},
		{"congest.subruns", "count", false},
		{"congest.arena_bytes", "B", false},
		{"congest.network_build_ms", "ms", false},
	}
	for _, s := range stageNames {
		m = append(m,
			metricSpec{"core." + s + ".wall_ms", "ms", false},
			metricSpec{"core." + s + ".rounds", "count", false},
			metricSpec{"core." + s + ".subruns", "count", false})
	}
	return append(m,
		metricSpec{"core.stage_wall_share", "ratio", true},
		metricSpec{"csssp.build_ms", "ms", false},
		metricSpec{"blocker.compute_ms", "ms", false},
		metricSpec{"blocker.selection_steps", "count", false},
		metricSpec{"blocker.good_point_share", "ratio", true},
		metricSpec{"blocker.subruns", "count", false},
		metricSpec{"blocker.q_size", "count", false},
		metricSpec{"bford.run_us_p50", "us", false},
		metricSpec{"broadcast.all_to_all_ms", "ms", false},
		metricSpec{"qsink.pipeline_rounds", "count", false},
		metricSpec{"qsink.bottlenecks", "count", false},
		metricSpec{"mem.result_mb", "MB", false},
		metricSpec{"mem.heap_live_mb", "MB", false},
		metricSpec{"mem.alloc_mb_per_solve", "MB", false},
		metricSpec{"serve.result_cache_hit_share", "ratio", true},
		metricSpec{"serve.batched_per_batch", "count", true},
		metricSpec{"serve.queue_depth_max", "count", false},
		metricSpec{"serve.shed", "count", false},
		metricSpec{"serve.journal_appends", "count", false},
		metricSpec{"serve.journal_bytes_per_update", "B", false},
		metricSpec{"serve.journal_fsyncs", "count", false},
		metricSpec{"serve.req_per_s", "1/s", true},
		metricSpec{"serve.query_ms_p50", "ms", false},
		metricSpec{"serve.query_ms_p99", "ms", false},
		metricSpec{"serve.fresh_query_ms_p50", "ms", false},
		metricSpec{"serve.update_ms_p50", "ms", false},
		metricSpec{"serve.update_ms_p90", "ms", false},
		metricSpec{"core.update.fellback_share", "ratio", false},
		metricSpec{"core.update.recomputed_share", "ratio", false},
		metricSpec{"trace.solve_s", "s", false},
		metricSpec{"trace.untraced_solve_s", "s", false},
		metricSpec{"trace.overhead_s", "s", false},
	)
}()

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is one benchmark run: the full result the --out file keeps, of
// which the last stdout line is the machine-readable subset.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func newRecord(cfg config) *record {
	return &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Provenance: currentProvenance(),
		Metrics:    make(map[string]metric),
	}
}

// set records a metric; the unit comes from the metric's spec.
func (r *record) set(name string, v float64, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples}
}

// fail counts one failed operation and keeps its first few reasons.
func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func unitOf(name string) string {
	s, ok := lookupSpec(name)
	if !ok {
		panic("perfbench: metric " + name + " has no spec")
	}
	return s.unit
}

// lookupSpec finds a metric's spec among the end-to-end and per-layer ones.
func lookupSpec(name string) (metricSpec, bool) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if s.name == name {
				return s, true
			}
		}
	}
	return metricSpec{}, false
}

// specs returns the metrics a run of the given trace mode must report.
func specs(trace int) []metricSpec {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// complete checks that the record carries every metric its mode reports,
// recording a failure for each missing one.
func (r *record) complete() {
	for _, s := range specs(r.Trace) {
		if _, ok := r.Metrics[s.name]; !ok {
			r.fail("metric %s was not measured", s.name)
		}
	}
}

// errorShare is failed over attempted operations.
func (r *record) errorShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes the human-readable report and, as the last line, the
// machine-readable JSON object.
func (r *record) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	p := r.Provenance
	fmt.Fprintf(bw, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(bw, "# nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n", p.NProc, p.GOMAXPROCS, p.GoVersion, p.CPU, p.Commit)
	fmt.Fprintf(bw, "# attempted=%d failed=%d error_share=%g\n", r.Attempted, r.Failed, r.errorShare())
	for _, f := range r.Failures {
		fmt.Fprintf(bw, "# failure: %s\n", f)
	}
	out := make(map[string]map[string]any, len(r.Metrics))
	for _, s := range specs(r.Trace) {
		m, ok := r.Metrics[s.name]
		if !ok {
			continue
		}
		fmt.Fprintf(bw, "%-36s %16.6f %-6s samples=%d\n", s.name, m.Value, m.Unit, m.Samples)
		out[s.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// appendTo adds the full record as one JSON line to path (the input format
// of the compare mode).
func (r *record) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// provenance says where and from what a result came (the seed and the
// per-metric sample counts are in the record itself).
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func currentProvenance() provenance {
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out commit of the working directory, or "unknown"
// outside a git work tree. The search for .git stops at the working
// directory, so an exported tree inside some other repository does not
// report that repository's commit.
func commit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
