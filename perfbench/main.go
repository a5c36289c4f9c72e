// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the mdesd daemon (as a child process, over
// loopback HTTP) or the mdes library (in process), checks every schedule
// it gets back against oracle-verified references, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 10 --trace 0
//
// README.md in this directory names the workloads, the metrics and the
// layer each per-layer metric belongs to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricSpec{
	{"blocks_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_kop", "ms"},
	{"upload_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, on every workload.
var perLayer = []metricSpec{
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.sent", "count"},
	{"loadgen.samples", "count"},
	{"mdesclient.encode_ms", "ms"},
	{"mdesclient.decode_ms", "ms"},
	{"mdesclient.request_bytes", "bytes"},
	{"mdesclient.response_bytes", "bytes"},
	{"server.decode_ms", "ms"},
	{"server.decode_mb_per_s", "MiB/s"},
	{"server.to_blocks_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.fixed_ms", "ms"},
	{"server.http_other_ms", "ms"},
	{"server.process_ms", "ms"},
	{"server.shed_429", "count"},
	{"server.shed_503", "count"},
	{"server.errors", "count"},
	{"translator.load_ms", "ms"},
	{"translator.optimize_ms", "ms"},
	{"descache.cold_load_ms", "ms"},
	{"descache.warm_load_ms", "ms"},
	{"descache.arena_open_ms", "ms"},
	{"engine.new_ms", "ms"},
	{"engine.schedule_blocks_ms", "ms"},
	{"engine.dispatch_ms", "ms"},
	{"engine.parallel_efficiency", "ratio"},
	{"ir.build_ms", "ms"},
	{"ir.edges_per_op", "ratio"},
	{"sched.height_ms", "ms"},
	{"sched.schedule_block_ms", "ms"},
	{"sched.loop_self_ms", "ms"},
	{"sched.length_per_op", "ratio"},
	{"probe.check_ms", "ms"},
	{"probe.reserve_ms", "ms"},
	{"probe.attempts_per_op", "ratio"},
	{"probe.options_per_attempt", "ratio"},
	{"probe.checks_per_attempt", "ratio"},
	{"probe.success_ratio", "ratio"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

// maxUnaccounted is the reconciliation bound: the traced stages must
// cover the traced wall time to within this share.
const maxUnaccounted = 0.10

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	mdesd    string
	root     string
	work     string
	results  string
}

// setupReps is the number of set-ups a run times; setup_s is their
// median. A run shorter than five seconds sets up once.
func (o *options) setupReps() int {
	if o.seconds < 5 {
		return 1
	}
	return 11
}

// warmup is the load run before the measured window: two seconds, or a
// fifth of a shorter window.
func (o *options) warmup() time.Duration {
	return min(2*time.Second, time.Duration(o.seconds)*time.Second/5)
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	// mismatches counts results that differed from their reference.
	mismatches int64
	metrics    map[string]float64
	// notes are extra fields of the result file and summary line.
	notes map[string]any
}

type workloadFunc func(ctx context.Context, o *options, st *stamp) (*outcome, error)

// workloads maps each workload name to its runner.
var workloads = map[string]workloadFunc{
	"serve-batch":        runServeBatch,
	"serve-mixed":        runServeMixed,
	"engine-paper-mix":   runEnginePaperMix,
	"engine-long-blocks": runEngineLongBlocks,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input generation seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.mdesd, "mdesd", "", "path to the mdesd binary (serve-* workloads)")
	fs.StringVar(&o.root, "root", ".", "repository root (the run's work files and results go under <root>/.bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = trace == 1
	if strings.HasPrefix(o.workload, "serve-") && o.mdesd == "" {
		fmt.Fprintln(stderr, "perfbench: serve workloads need --mdesd")
		return 2
	}
	build := filepath.Join(o.root, ".bench_build")
	o.results = filepath.Join(build, "results")
	o.work = filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(o.results, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st := newStamp(o)
	out, err := wl(ctx, o, &st)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	correct, err := report(o, &st, out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or mismatched\n", o.workload, out.failed, out.attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report writes the machine-stamped result file, a human-readable
// summary, and the result line last.
func report(o *options, st *stamp, out *outcome, stdout io.Writer) (bool, error) {
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	line := resultLine{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	correct := out.attempted > 0 && out.failed == 0 && out.mismatches == 0
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("metric %s not measured", s.name)
		}
		line.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if o.trace {
		if u := out.metrics["trace.unaccounted_frac"]; math.Abs(u) > maxUnaccounted {
			fmt.Fprintf(stdout, "reconciliation failed: traced stages leave %.1f%% of the traced wall time unaccounted (bound %.0f%%)\n", 100*u, 100*maxUnaccounted)
			correct = false
		}
	}
	line.Correct = correct
	errorRate := 0.0
	if out.attempted > 0 {
		errorRate = float64(out.failed+out.mismatches) / float64(out.attempted)
	}
	file := map[string]any{
		"stamp":      st,
		"result":     line,
		"error_rate": errorRate,
		"mismatches": out.mismatches,
		"notes":      out.notes,
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace))
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(o.results, name), append(data, '\n'), 0o644); err != nil {
		return false, err
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s cpu=%q source=%s\n",
		o.workload, o.seed, o.seconds, o.trace, st.Nproc, st.GOMAXPROCS, st.GoVersion, st.CPUModel, st.SourceDigest)
	fps := make([]string, 0, len(st.Fingerprints))
	for k, v := range st.Fingerprints {
		fps = append(fps, k+"="+v)
	}
	sort.Strings(fps)
	fmt.Fprintf(stdout, "  fingerprints %s\n", strings.Join(fps, " "))
	fmt.Fprintf(stdout, "  error_rate %.6f ratio (%d failed, %d mismatched, %d attempted)\n", errorRate, out.failed, out.mismatches, out.attempted)
	for _, s := range specs {
		fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", s.name, line.Metrics[s.name].Value, s.unit)
	}
	keys := make([]string, 0, len(out.notes))
	for k := range out.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  note %s=%v\n", k, out.notes[k])
	}
	fmt.Fprintf(stdout, "  result file .bench_build/results/%s\n", name)
	enc, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(enc))
	return correct, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// errMismatch marks a result that differs from its reference.
var errMismatch = errors.New("result differs from the reference")

// latencyMetrics fills the latency metrics and their sample notes.
func latencyMetrics(out *outcome, s *loopStats) {
	sum := summarize(s.lat)
	out.metrics["latency_p50_ms"] = s.latencyPercentile(50)
	out.metrics["latency_p90_ms"] = s.latencyPercentile(90)
	out.notes["latency"] = sum
	if sum.Tail < 90 {
		out.notes["warning"] = fmt.Sprintf("only %d latency samples: p90 has fewer than %d beyond it", sum.N, minBeyond)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// gomaxprocs is the scheduling parallelism and the client bound.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
