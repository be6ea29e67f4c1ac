package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// sizes fixes the population and the fixed-length phases of every
// workload. fullSizes is what the benchmark measures; tinySizes is the
// self-test's.
type sizes struct {
	objects, functions int // serve_objects and durable_restart population
	queries            int // query functions the reads rotate over
	k                  int // TopK depth

	// serve_users: objects as above, its own user count, shard count and
	// reads after each mutation.
	shardUsers, shards, readsPerStep int

	solveObjects, solveFunctions, levels int // solve_batch population

	setupReps int // fresh builds of the starting state; setup_s is their median

	// Untimed warm-up steps; the exact per-layer counters are deltas
	// over this fixed-length segment, so they repeat bit for bit.
	warmObjects, warmUsers, warmDurable int

	// durable_restart: dominated objects seeded before the churn, the
	// SaveSnapshot period in commits, the batches logged after the last
	// snapshot before the crash, and the recovery repetitions.
	tailPool, snapEvery, tailBatches, recoverReps int
}

var fullSizes = sizes{
	objects: 20000, functions: 800, queries: 8, k: 10,
	shardUsers: 150, shards: 4, readsPerStep: 8,
	solveObjects: 100000, solveFunctions: 1000, levels: 16,
	setupReps:   3,
	warmObjects: 200, warmUsers: 40, warmDurable: 400,
	tailPool: 200, snapEvery: 2000, tailBatches: 400, recoverReps: 15,
}

var tinySizes = sizes{
	objects: 3000, functions: 120, queries: 8, k: 10,
	shardUsers: 40, shards: 4, readsPerStep: 8,
	solveObjects: 4000, solveFunctions: 150, levels: 16,
	setupReps:   2,
	warmObjects: 20, warmUsers: 4, warmDurable: 20,
	tailPool: 10, snapEvery: 40, tailBatches: 15, recoverReps: 3,
}

// workers is the thread budget every workload gives the program: the
// Workers, BuildWorkers and SearchWorkers knobs are all set to it.
const workers = 2

// run is the state of one benchmark invocation.
type run struct {
	name string
	cfg  config
	sz   sizes
	tmp  string // per-run scratch directory, removed at exit
	rng  *rand.Rand

	setupS []float64 // seconds per fresh build of the starting state
	heapMB float64

	cur    *segment // segment being measured; nil during setup and warm-up
	main   *segment // untraced measured segment (end-to-end metrics)
	traced *segment // traced segment (per-layer metrics), trace mode only
	tr     *tracer  // non-nil only while the traced segment runs
	prof   string   // CPU profile of the traced segment

	attempted, failed int
	gateErr           error

	layer map[string]metric
	start time.Time
}

// phase logs how far into the run a phase ended.
func (r *run) phase(name string) {
	fmt.Fprintf(os.Stderr, "phase %-10s done at %7.3fs\n", name, time.Since(r.start).Seconds())
}

func newRun(name string, cfg config, tmp string) *run {
	return &run{
		name:  name,
		cfg:   cfg,
		sz:    cfg.sizes,
		tmp:   tmp,
		rng:   rand.New(rand.NewPCG(uint64(cfg.seed), 0x9e3779b97f4a7c15)),
		layer: map[string]metric{},
		start: time.Now(),
	}
}

// segment is one closed-loop stretch of steps.
type segment struct {
	ops, failed int
	wall        time.Duration
	op          [2][]float64 // main-call latencies in ms: arrivals, departures
	aux         []float64    // secondary-call latencies in ms
	rt0, rt1    rtStats
}

func (s *segment) opsPerSec() float64 { return float64(s.ops) / s.wall.Seconds() }

// opP50 is the mean of the median arrival and the median departure (a
// workload with one kind of main call has only the first). Arrivals and
// departures cost differently, so the median of the pooled samples falls
// in the sparse gap between the two clusters, where a small shift in
// either moves it far; on serve_objects the two medians are 0.22 and
// 0.04 ms.
func (s *segment) opP50() float64 {
	sum, n := 0.0, 0
	for _, xs := range s.op {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	return sum / float64(n)
}

func (s *segment) opAll() []float64 { return append(slices.Clone(s.op[0]), s.op[1]...) }

// call runs f as the public call name: it is timed, and recorded as a
// span (nested under the enclosing call) while the traced segment runs.
func (r *run) call(name string, f func() error) (time.Duration, error) {
	id := r.tr.begin(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.tr.end(id)
	return d, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Kinds of main call; a workload with one kind records it as onlyOp.
const (
	arrivalOp = iota
	departureOp
	onlyOp = arrivalOp
)

// recordOp and recordAux add a latency sample to the segment being
// measured; outside one they do nothing.
func (r *run) recordOp(kind int, d time.Duration) {
	if r.cur != nil {
		r.cur.op[kind] = append(r.cur.op[kind], ms(d))
	}
}

func (r *run) recordAux(d time.Duration) {
	if r.cur != nil {
		r.cur.aux = append(r.cur.aux, ms(d))
	}
}

// setup builds the starting state sz.setupReps times, timing each build,
// and keeps the last one; discard releases the others.
func setup[T any](r *run, build func() (T, error), discard func(T)) (T, error) {
	var kept T
	for i := 0; i < r.sz.setupReps; i++ {
		if i > 0 {
			discard(kept)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return kept, fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		kept = v
	}
	r.heapMB = liveHeapMB()
	r.phase("setup")
	return kept, nil
}

// warm runs n untimed steps; a failing step aborts the run, since the
// measured state would not be the intended one.
func (r *run) warm(n int, step func() error) error {
	for i := 0; i < n; i++ {
		if err := step(); err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}
	r.phase("warm-up")
	return nil
}

// liveHeapMB returns the live heap after forced collections; the second
// one empties the sync.Pool victim caches the first leaves behind.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// loop measures step in a closed loop: one segment of cfg.seconds, and
// in trace mode a second, traced segment of the same length with spans
// and a CPU profile.
func (r *run) loop(step func() error) error {
	r.main = r.measure(step)
	r.phase("measure")
	if !r.cfg.trace {
		return nil
	}
	r.prof = r.tracePath("cpu.pprof")
	if err := os.MkdirAll(filepath.Dir(r.prof), 0o755); err != nil {
		return err
	}
	f, err := os.Create(r.prof)
	if err != nil {
		return err
	}
	r.tr = newTracer()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	r.traced = r.measure(step)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	r.tr.stop()
	return nil
}

func (r *run) measure(step func() error) *segment {
	runtime.GC()
	seg := &segment{rt0: readRuntime()}
	r.cur = seg
	defer func() { r.cur = nil }()
	st0, st0ok := readSteal()
	start := time.Now()
	deadline := start.Add(r.cfg.seconds)
	for seg.ops == 0 || time.Now().Before(deadline) {
		root := r.tr.begin("step")
		err := step()
		r.tr.end(root)
		r.tr.next()
		seg.ops++
		if err != nil {
			if seg.failed == 0 {
				fmt.Fprintln(os.Stderr, "operation failed:", err)
			}
			seg.failed++
		}
	}
	seg.wall = time.Since(start)
	seg.rt1 = readRuntime()
	if st1, ok := readSteal(); ok && st0ok {
		fmt.Fprintf(os.Stderr, "cpu steal during segment: %.1f%%\n", 100*float64(st1.steal-st0.steal)/float64(max(1, st1.total-st0.total)))
	}
	r.attempted += seg.ops
	r.failed += seg.failed
	return seg
}

// gate records a correctness-gate failure; the first one is reported.
func (r *run) gate(err error) {
	r.phase("gate")
	if err != nil && r.gateErr == nil {
		r.gateErr = err
	}
}

// endToEnd is the untraced result. The tails are logged, not reported:
// solve_batch measures too few solves for a p95 with ten samples beyond.
func (r *run) endToEnd() map[string]metric {
	s := r.main
	fmt.Fprintf(os.Stderr, "segment ops=%d failed=%d wall=%.3fs op_samples=%d op_ms_p95=%.4g aux_samples=%d aux_ms_p95=%.4g\n",
		s.ops, s.failed, s.wall.Seconds(), len(s.opAll()), quantile(s.opAll(), 0.95), len(s.aux), quantile(s.aux, 0.95))
	return map[string]metric{
		"setup_s":    {median(r.setupS), "s"},
		"heap_mb":    {r.heapMB, "MB"},
		"ops_per_s":  {s.opsPerSec(), "1/s"},
		"op_ms_p50":  {s.opP50(), "ms"},
		"aux_ms_p50": {median(s.aux), "ms"},
	}
}

// set records a per-layer metric.
func (r *run) set(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// rtStats is a reading of the Go runtime's allocation and GC counters.
type rtStats struct {
	totalAlloc, numGC uint64
	gcCPU, totalCPU   float64
}

func readRuntime() rtStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return rtStats{totalAlloc: m.TotalAlloc, numGC: uint64(m.NumGC), gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// layerCommon sets the per-layer metrics every workload reports: Go
// runtime costs of the traced segment, the CPU split by module, the
// untraced tails and the tracing overhead.
func (r *run) layerCommon() error {
	m, t := r.main, r.traced
	ops := float64(t.ops)
	r.set("go.alloc_kb_per_op", float64(t.rt1.totalAlloc-t.rt0.totalAlloc)/ops/1024, "KB")
	r.set("go.gc_per_kop", float64(t.rt1.numGC-t.rt0.numGC)*1000/ops, "count")
	gcFrac := 0.0
	if cpu := t.rt1.totalCPU - t.rt0.totalCPU; cpu > 0 {
		gcFrac = (t.rt1.gcCPU - t.rt0.gcCPU) / cpu
	}
	r.set("go.gc_cpu_frac", gcFrac, "share")
	r.set("op_ms_p95", quantile(m.opAll(), 0.95), "ms")
	r.set("aux_ms_p95", quantile(m.aux, 0.95), "ms")
	r.set("trace.overhead_ops_frac", 1-t.opsPerSec()/m.opsPerSec(), "share")
	r.set("trace.overhead_op_p50_frac", t.opP50()/m.opP50()-1, "share")
	shares, err := cpuShares(r.prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for mod, v := range shares {
		r.set("cpu."+mod, v, "share")
	}
	return r.tr.write(r.tracePath("spans.jsonl"))
}

// tracePath names a file the traced run leaves behind.
func (r *run) tracePath(kind string) string {
	return filepath.Join(r.cfg.scratch, "traces", fmt.Sprintf("%s-seed%d.%s", r.name, r.cfg.seed, kind))
}

// cpuTimes is the machine-wide CPU time and its stolen part (time a
// virtual machine waited for the host), from /proc/stat in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readSteal reads /proc/stat; ok is false where it does not exist.
func readSteal() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}
