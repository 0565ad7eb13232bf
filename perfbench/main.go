// Command perfbench is the engine's end-to-end benchmark with a per-layer
// breakdown. One run measures one workload for a fixed time on generated
// inputs, checks the outputs, and prints its metrics as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload gnmf-tcp --seed 1 --seconds 24 --trace 0
//
// Workloads (see README.md for why each exists):
//
//   - gnmf-tcp: GNMF iterations over two in-process TCP workers.
//   - ae-tcp: AutoEncoder SGD steps over the same two workers.
//   - serve-sim: two tenants in a closed loop against the HTTP service.
//   - plan-paper: compile plus Eq. 2 simulation at the paper's shapes.
//
// An untraced run (--trace 0) prints the end-to-end metrics. A traced run
// (--trace 1) alternates traced and untraced ops, records spans around the
// benchmark's calls into each layer, writes the spans to --spans-dir when
// it ends, and prints the per-layer metrics, including the tracing
// overhead. The benchmark reads only counters the engine already exposes
// and adds no instrumentation inside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark scenario; BENCHMARK.json and README.md say why
// each is there.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var scenarios = []workload{
	{"gnmf-tcp", runGNMF},
	{"ae-tcp", runAE},
	{"serve-sim", runServe},
	{"plan-paper", runPlan},
}

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds float64
	tiny    bool    // tiny inputs, for the package's own smoke test
	tr      *tracer // non-nil in traced runs
	mem     *memSampler
	log     io.Writer
	// minOps is the op count the timed section reaches even when its time
	// is up, so that ten samples lie beyond the 90th percentile.
	minOps int
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload measured.
type outcome struct {
	setups []float64 // seconds of each set-up; setup_s is their median
	ops    []opSample
	wall   float64 // seconds of the timed section
	checks []check
	// layer holds per-layer values no single op owns.
	layer map[string]float64
	// record holds workload facts for the run record.
	record map[string]any
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// timedLoop runs op back to back until the time budget is spent, at least
// minOps ops ran and the last cycle of inputs is complete, so every run
// measures the same mix. In a traced run, ops alternate in blocks of cycle
// between traced and untraced, so both halves see the same mix of inputs;
// a traced op gets a root span to hang its layer spans from.
func (e *env) timedLoop(cycle int, op func(i int, tr *tracer, root *active) (map[string]float64, error)) ([]opSample, float64) {
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var ops []opSample
	for i := 0; time.Now().Before(deadline) || len(ops) < e.minOps || i%cycle != 0; i++ {
		traced := e.tr != nil && (i/cycle)%2 == 0
		var tr *tracer
		if traced {
			tr = e.tr
		}
		t0 := time.Now()
		root := tr.start("op", nil, i)
		layer, err := op(i, tr, root)
		root.end()
		ops = append(ops, opSample{seconds: time.Since(t0).Seconds(), ok: err == nil, traced: traced, layer: layer})
		e.mem.sample()
		if err != nil {
			fmt.Fprintf(e.log, "op %d failed: %v\n", i, err)
		}
	}
	return ops, time.Since(start).Seconds()
}

// lockedWriter serialises writes from concurrent clients.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// memSlices is how many equal slices of the timed section mem_peak_mb
// takes the median over.
const memSlices = 10

// memSampler records the process's resident Go memory (memory the runtime
// has mapped minus what it has returned to the system) after each op of
// the timed section. Each run measures one workload in its own process, so
// the figure is the workload's own.
type memSampler struct {
	mu    sync.Mutex
	at    []time.Time
	bytes []float64
}

func (m *memSampler) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	b := float64(s[0].Value.Uint64() - s[1].Value.Uint64())
	m.mu.Lock()
	m.at = append(m.at, time.Now())
	m.bytes = append(m.bytes, b)
	m.mu.Unlock()
}

// peakMB is the peak resident memory of the timed section in MiB, taken
// robustly: the median over memSlices equal time slices of each slice's
// largest sample. With a small live heap and many collections, the single
// largest sample depends on which collection happened to mark while the
// biggest requests were in flight; the median of slice peaks does not.
func (m *memSampler) peakMB() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.at) == 0 {
		return 0
	}
	t0, span := m.at[0], m.at[len(m.at)-1].Sub(m.at[0])
	peaks := make([]float64, memSlices)
	for i, t := range m.at {
		w := 0
		if span > 0 {
			w = min(int(memSlices*float64(t.Sub(t0))/float64(span)), memSlices-1)
		}
		peaks[w] = math.Max(peaks[w], m.bytes[i])
	}
	var nonEmpty []float64
	for _, p := range peaks {
		if p > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	return median(nonEmpty) / (1 << 20)
}

// rssHighWaterMB is the process's resident set high-water mark in MiB, set
// at any point of the run, checks included; the run record carries it next
// to mem_peak_mb.
func rssHighWaterMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run parses args, runs one workload and prints its result; it returns the
// process exit code.
func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: gnmf-tcp, ae-tcp, serve-sim or plan-paper")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed section")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	tiny := fs.Bool("tiny", false, "tiny inputs and few ops (smoke test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range scenarios {
		if scenarios[i].name == *name {
			w = &scenarios[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, tiny: *tiny, mem: &memSampler{}, log: &lockedWriter{w: stderr}, minOps: 100}
	if *tiny {
		e.minOps = 12
	}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traceFlag)

	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	res := result{Correct: true, Attempted: len(out.ops), Metrics: map[string]value{}}
	for _, o := range out.ops {
		if !o.ok {
			res.Failed++
		}
	}
	for _, c := range out.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
			res.Correct = false
		}
		fmt.Fprintf(stdout, "check %-28s %-6s %s\n", c.Name, status, c.Detail)
	}
	if res.Attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: no op attempted")
		return 1
	}

	rec := runRecord(w.name, *seed, *seconds, *traceFlag, out)
	if e.tr == nil {
		vals, notes := endToEndMetrics(out, e.mem.peakMB())
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
			fmt.Fprintf(stdout, "%-26s %14.6g %-8s %s\n", m.Name, vals[m.Name], m.Unit, notes[m.Name])
		}
	} else {
		vals := layerMetrics(out.ops, out.layer)
		for _, m := range perLayer {
			res.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
			fmt.Fprintf(stdout, "%-26s %14.6g %-8s moves %s on %s\n", m.Name, vals[m.Name], m.Unit, m.Moves, m.On)
		}
		where, err := e.tr.write(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", where)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range scenarios {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes non-finite values, which JSON cannot carry, as 0.
func (v value) MarshalJSON() ([]byte, error) {
	x := v.Value
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	type plain value
	return json.Marshal(plain{Value: x, Unit: v.Unit})
}

// endToEndMetrics computes the end-to-end metrics of an untraced run and a
// note per metric with the sample count behind it.
func endToEndMetrics(out *outcome, memPeakMB float64) (map[string]float64, map[string]string) {
	lat := sortedCopy(latencies(out.ops, false))
	n := len(lat)
	p90, beyond := p90Beyond(lat)
	vals := map[string]float64{
		"setup_s":     median(out.setups),
		"ops_per_s":   safeDiv(float64(n), out.wall),
		"op_s.p50":    quantile(lat, 0.5),
		"op_s.p90":    p90,
		"ok_ratio":    safeDiv(float64(n), float64(len(out.ops))),
		"mem_peak_mb": memPeakMB,
	}
	notes := map[string]string{
		"setup_s":     fmt.Sprintf("median of %d set-ups", len(out.setups)),
		"ops_per_s":   fmt.Sprintf("%d ops in %.3f s", n, out.wall),
		"op_s.p50":    fmt.Sprintf("n=%d", n),
		"op_s.p90":    fmt.Sprintf("n=%d, %d beyond", n, beyond),
		"ok_ratio":    fmt.Sprintf("%d of %d attempted", n, len(out.ops)),
		"mem_peak_mb": fmt.Sprintf("median over %d slices of the timed section of the slice's peak", memSlices),
	}
	return vals, notes
}

// p90Beyond is the 90th percentile of sorted latencies and how many lie
// beyond it.
func p90Beyond(sorted []float64) (float64, int) {
	p90 := quantile(sorted, 0.9)
	beyond := 0
	for _, x := range sorted {
		if x > p90 {
			beyond++
		}
	}
	return p90, beyond
}

// runRecord describes the machine and the run next to its metrics. The
// percentile sample counts are those of the untraced ops.
func runRecord(name string, seed int64, seconds float64, trace int, out *outcome) map[string]any {
	untraced := latencies(out.ops, false)
	_, beyond := p90Beyond(sortedCopy(untraced))
	rec := map[string]any{
		"workload": name,
		"seed":     seed,
		"seconds":  seconds,
		"trace":    trace,
		"machine": map[string]any{
			"cpu_model":  cpuModel(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		"ops":                len(out.ops),
		"ops_ok":             len(untraced) + len(latencies(out.ops, true)),
		"traced_ops":         len(latencies(out.ops, true)),
		"percentile_samples": len(untraced),
		"beyond_p90":         beyond,
		"setups":             len(out.setups),
		"rss_high_water_mb":  rssHighWaterMB(),
		"checks":             out.checks,
	}
	for k, v := range out.record {
		rec[k] = v
	}
	return rec
}

// cpuModel reads the CPU model name; "unknown" when the system hides it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
