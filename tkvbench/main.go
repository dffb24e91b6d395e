// Command tkvbench is the repository's benchmark: one command that runs one
// workload against tkv (over its binary wire protocol) or against an STM
// engine directly, checks every output against a model kept by the
// benchmark, and prints the metrics as one JSON line.
//
// Build and run it from the repository root through the wrapper, which
// compiles this package from the checkout's sources:
//
//	bash tkvbench/run.sh --workload kv-large-read --seed 1 --seconds 20 --trace 0
//	bash tkvbench/run.sh --steady 10
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 the
// run also records spans around the benchmark's calls into each layer,
// writes them to .bench_build/tkvbench/spans-<workload>.bin and the JSON
// carries the per-layer metrics. See README.md for the workloads, the
// metrics and what each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// clients is the number of closed-loop clients (connections or threads),
// each with one request in flight.
const clients = 2

// outDir is where runs keep their scratch data and span files, relative to
// the repository root the benchmark runs from.
const outDir = ".bench_build/tkvbench"

// runConfig is what one run is asked to do.
type runConfig struct {
	name    string
	seed    uint64
	seconds int
	trace   bool
	dir     string // scratch directory of this run, removed at exit
}

// outcome is what a workload reports: the counts of the measured window,
// end-to-end metrics (untraced or traced, by the run's mode), per-layer
// metrics, and the first failed check.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	checkErr          error
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"kv-large-read": runLargeRead,
	"kv-durable":    runDurable,
	"stm-rbtree":    runRBTree,
}

// e2eUnits and layerUnits give every metric's unit; the JSON carries
// exactly these names (BENCHMARK.json lists the same ones).
var e2eUnits = map[string]string{
	"ops_per_s":          "ops/s",
	"read_p50_us":        "us",
	"read_p99_us":        "us",
	"write_p50_us":       "us",
	"write_p99_us":       "us",
	"multikey_p50_us":    "us",
	"multikey_p99_us":    "us",
	"cpu_us_per_op":      "us/op",
	"alloc_bytes_per_op": "B/op",
	"max_rss_mb":         "MB",
	"setup_s":            "s",
}

var layerUnits = map[string]string{
	"tkvwire.get_self_p50_us":          "us",
	"tkvwire.write_self_p50_us":        "us",
	"tkv.get_p50_us":                   "us",
	"tkv.get_p99_us":                   "us",
	"tkv.mget_p50_us":                  "us",
	"tkv.batch_p50_us":                 "us",
	"tkv.ro_fallbacks_per_kop":         "1/kop",
	"keylock.stripe_waits_per_kop":     "1/kop",
	"tkvwal.stage_p50_us":              "us",
	"tkvwal.bytes_per_write":           "B/write",
	"tkvwal.checkpoints":               "count",
	"tkvwal.recovery_s":                "s",
	"stm.tx_p50_us":                    "us",
	"stm.aborts_per_commit":            "aborts/commit",
	"sched.serializations_per_kcommit": "1/kcommit",
	"runtime.gc_cycles":                "count",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tkvbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tkvbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", 30, "length of the measured window in seconds")
		trace   = fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		steady  = fs.Int("steady", 0, "run every workload this many times (seeds 1..n) and print the spread of each metric")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *steady > 0 {
		return runSteady(*steady)
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	dir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer removeAndSync(dir)
	fmt.Printf("# tkvbench %s seed=%d seconds=%d trace=%d go=%s nproc=%d gomaxprocs=%d\n",
		*name, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	out, err := runner(runConfig{name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir})
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if out.checkErr != nil {
		fmt.Fprintf(os.Stderr, "tkvbench: %s: check failed: %v\n", *name, out.checkErr)
	}
	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	units, values := e2eUnits, out.e2e
	if *trace == 1 {
		units, values = layerUnits, out.layers
		printMetrics("traced end-to-end (tracing overhead against --trace 0 runs)", out.e2e, e2eUnits)
	} else {
		printMetrics("per-layer counters (spans need --trace 1)", out.layers, layerUnits)
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return fmt.Errorf("workload did not measure %s", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.checkErr != nil {
		return fmt.Errorf("%s: outputs did not match the model", *name)
	}
	return nil
}

// removeAndSync removes a run's scratch directory and commits the removal
// with an fsync of its parent, so that the next run's fsyncs do not pay for
// it.
func removeAndSync(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "tkvbench:", err)
		return
	}
	if d, err := os.Open(filepath.Dir(dir)); err == nil {
		_ = d.Sync() // best effort: only the next run's timing depends on it
		d.Close()
	}
}

// printMetrics prints the metrics of the other mode as one comment line.
func printMetrics(title string, values map[string]float64, units map[string]string) {
	names := make([]string, 0, len(values))
	for n := range values {
		if _, ok := units[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.6g[%s]", n, values[n], units[n])
	}
	fmt.Printf("# %s:%s\n", title, b.String())
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
