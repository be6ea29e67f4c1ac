// Command perfbench is the fairassign benchmark: four closed-loop
// workloads driven through the public fairassign API by one goroutine,
// each followed by a correctness gate, printing one JSON result line.
//
//	perfbench --workload serve_objects --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run
// (spans around every public call, counter deltas and a CPU profile).
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fairassign/internal/score"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"serve_objects":   serveObjects,
	"serve_users":     serveUsers,
	"solve_batch":     solveBatch,
	"durable_restart": durableRestart,
}

// endToEnd and perLayer name every reported metric with its unit; every
// workload reports all of them (a per-layer metric of a layer the
// workload does not reach reads 0). BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"setup_s": "s", "heap_mb": "MB", "ops_per_s": "1/s", "op_ms_p50": "ms", "aux_ms_p50": "ms",
}

var perLayer = func() map[string]string {
	m := map[string]string{
		"op_ms_p95": "ms", "aux_ms_p95": "ms",
		"go.alloc_kb_per_op": "KB", "go.gc_per_kop": "count", "go.gc_cpu_frac": "share",
		"trace.overhead_ops_frac": "share", "trace.overhead_op_p50_frac": "share",

		"assign.apply_ms_mean": "ms", "assign.snapshot_ms_p50": "ms",
		"assign.chain_steps_per_mut": "count", "assign.searches_per_mut": "count",
		"assign.io_per_mut": "count", "assign.commits_per_mut": "count", "assign.frontier_size": "count",

		"shard.apply_ms_mean": "ms", "shard.snapshot_ms_p50": "ms",
		"shard.chain_steps_per_mut": "count", "shard.searches_per_mut": "count", "shard.io_per_mut": "count",
		"shard.dirty_shards_per_commit": "count", "shard.frontier_size": "count", "shard.max_objects_share": "share",

		"topk.first_ms_p50": "ms", "topk.warm_ms_p50": "ms",

		"solve.io_accesses": "count", "solve.topk_searches": "count", "solve.loops": "count", "solve.peak_search_mb": "MB",

		"wal.bytes_per_mut": "B", "snapshot.save_s": "s", "snapshot.file_mb": "MB",
		"recover.restore_s": "s", "recover.replay_ms_per_batch": "ms", "recover.batches_replayed": "count",

		"cpu.gc": "share", "cpu.other": "share",
	}
	for _, mod := range modules {
		m["cpu."+mod] = "share"
	}
	return m
}()

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve_objects, serve_users, solve_batch or durable_restart")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "length of each measured segment in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer mode")
		root    = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	)
	flag.Parse()
	res, err := execute(*name, config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scratch: filepath.Join(*root, ".bench_build"),
		sizes:   fullSizes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	scratch string // directory for WAL dirs, spans and profiles
	sizes   sizes
}

// execute runs one workload and assembles its result. An error means the
// run could not be carried out at all (bad flags, an API call that
// failed during setup); a failed correctness gate is a result with
// Correct false and every operation counted as failed.
func execute(name string, cfg config) (*result, error) {
	runWorkload, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := newRun(name, cfg, tmp)
	r.logEnv()
	if err := runWorkload(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r.result()
}

// logEnv records the environment of the run on standard error.
func (r *run) logEnv() {
	env := map[string]any{
		"workload":   r.name,
		"seed":       r.cfg.seed,
		"seconds":    r.cfg.seconds.Seconds(),
		"trace":      r.cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"simd":       score.SIMDLevel(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintln(os.Stderr, "env", string(b))
}

// result turns the run's measurements into the reported metrics.
func (r *run) result() (*result, error) {
	res := &result{
		Correct:   r.gateErr == nil,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if r.gateErr != nil {
		fmt.Fprintln(os.Stderr, "correctness gate failed:", r.gateErr)
		res.Failed = res.Attempted
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	want, got := endToEnd, r.endToEnd()
	if r.cfg.trace {
		want, got = perLayer, r.layer
		for k, unit := range perLayer {
			res.Metrics[k] = metric{0, unit}
		}
	}
	for k, v := range got {
		if want[k] != v.Unit {
			return nil, fmt.Errorf("metric %s in %q is not a declared metric", k, v.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, v.Value)
		}
		res.Metrics[k] = v
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}
