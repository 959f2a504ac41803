// Command perfbench is the repository's benchmark: four closed-loop
// workloads that each load a different set of modules, run a fixed
// amount of work, check every output against an oracle, and print one
// JSON result line.
//
//	perfbench --workload study|dataplane|failover|tracker --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics of an
// untraced pass. With --trace 1 the run also makes a traced pass over
// a freshly built system, checks that its outputs equal the untraced
// pass, reports the tracing overhead, and reports every per-layer
// metric; the spans go to .bench_build/trace/ and a self-time table to
// standard error. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// setups is how many times a run builds its system; setup_s is the
// median, and the last build is the one measured.
const setups = 5

// metric is one reported number.
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

// runner is one built and warmed system under test.
type runner interface {
	// steps is how many steps one pass makes.
	steps() int
	// step runs step i of a pass, reporting ops, latencies and work to
	// m. For every workload but tracker a step is one op.
	step(i int, m *meter) error
	// verify runs the end-of-pass oracle; each error is one failed check.
	verify() []error
	// digest summarizes every output of the pass, so a traced pass can
	// be compared with an untraced one.
	digest() string
	// layers returns the per-layer metrics of a traced pass.
	layers(tr *tracer) map[string]metric
	close()
}

// workload builds runners.
type workload struct {
	name string
	// unit names one work unit (what work_per_cpu_s counts).
	unit string
	// opsPerSecond fixes the work of a run: a run makes
	// seconds × opsPerSecond steps, whatever the machine's speed.
	opsPerSecond float64
	// tracedSteps, when set, caps the steps of a traced pass (study
	// replays only its first ops); nil keeps the untraced count.
	tracedSteps func(n int) int
	// tracedSetup, when set, builds the system a traced pass runs on:
	// one whose passes make the calls the spans wrap even with tracing
	// off (study replays Validate from the layers' public calls). The
	// tracing overhead is then measured against an untraced pass over
	// the same system rather than against the untraced run.
	tracedSetup func(seed int64, n int) (runner, error)
	// setup generates the inputs from seed, builds the system and warms
	// it; n is the number of steps the pass will make.
	setup func(seed int64, n int) (runner, error)
}

var workloads = []workload{studyWorkload, dataplaneWorkload, failoverWorkload, trackerWorkload}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: study, dataplane, failover or tracker")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 10, "nominal run length; the work of a run is seconds × a fixed per-workload rate")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	commit := fs.String("commit", "", "source revision, recorded in the provenance line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload study|dataplane|failover|tracker, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	n := stepsFor(w, *seconds)
	prov := newProvenance(*commit, *seed, w, n)
	if err := json.NewEncoder(stdout).Encode(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	res, err := measure(w, *seed, n, *trace == 1, *traceDir, prov, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// stepsFor converts the nominal run length to a fixed step count.
func stepsFor(w workload, seconds int) int {
	n := int(float64(seconds)*w.opsPerSecond + 0.5)
	return max(n, 1)
}

// measure builds the system setups times, makes the untraced pass and,
// when traced, the traced pass and the probes of the other workloads.
func measure(w workload, seed int64, n int, traced bool, traceDir string, prov provenance, stderr io.Writer) (result, error) {
	r, setupTimes, err := buildSystem(w, seed, n)
	if err != nil {
		return result{}, err
	}
	base := runPass(r, nil)
	r.close()
	res := result{Attempted: base.ops, Failed: base.failed}
	for _, e := range base.errs {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %v\n", w.name, e)
	}
	var stolen, wallRates []float64
	for _, c := range base.chunks {
		stolen = append(stolen, c.stolen)
		wallRates = append(wallRates, float64(c.work)/c.wall.Seconds())
	}
	fmt.Fprintf(stderr, "perfbench: %s: the hypervisor stole %.1f%% of CPU time in the median chunk, %.1f%% at most; work per wall second %.6g\n",
		w.name, 100*median(stolen), 100*slices.Max(stolen), median(wallRates))
	if !traced {
		res.Metrics = map[string]metric{
			"setup_s":        {median(setupTimes), "s"},
			"work_per_cpu_s": {base.workPerCPUSecond(), "1/s"},
			"latency_p50_ms": {base.latencyMS(0.50), "ms"},
			"latency_p90_ms": {base.latencyMS(0.90), "ms"},
			"heap_peak_mb":   {float64(base.heapPeak) / (1 << 20), "MB"},
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	tr := newTracer(w.name)
	tp, layers, err := tracedPass(w, seed, n, tr)
	if err != nil {
		return result{}, err
	}
	res.Attempted += tp.ops
	res.Failed += tp.failed
	for _, e := range tp.errs {
		fmt.Fprintf(stderr, "perfbench: %s traced: check failed: %v\n", w.name, e)
	}
	if tp.digest != base.digest {
		fmt.Fprintf(stderr, "perfbench: %s: traced outputs differ from untraced outputs\n", w.name)
		res.Failed++
	}
	res.Metrics = layers
	untraced := base.workPerCPUSecond()
	if w.tracedSetup != nil {
		up, _, err := tracedPass(w, seed, n, nil)
		if err != nil {
			return result{}, err
		}
		res.Attempted += up.ops
		res.Failed += up.failed
		if up.digest != tp.digest {
			fmt.Fprintf(stderr, "perfbench: %s: traced outputs differ from the same calls untraced\n", w.name)
			res.Failed++
		}
		untraced = up.workPerCPUSecond()
	}
	res.Metrics["trace.overhead_pct"] = metric{(untraced/tp.workPerCPUSecond() - 1) * 100, "%"}
	tables := []*tracer{tr}

	// Per-layer metrics of the other workloads come from traced probes
	// one nominal second long, so every traced run reports every
	// per-layer metric.
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		ptr := newTracer(other.name)
		pp, players, err := tracedPass(other, seed, stepsFor(other, 1), ptr)
		if err != nil {
			return result{}, fmt.Errorf("probe %s: %w", other.name, err)
		}
		res.Attempted += pp.ops
		res.Failed += pp.failed
		for _, e := range pp.errs {
			fmt.Fprintf(stderr, "perfbench: %s probe: check failed: %v\n", other.name, e)
		}
		for k, v := range players {
			res.Metrics[k] = v
		}
		tables = append(tables, ptr)
	}
	for _, t := range tables {
		t.printTable(stderr)
	}
	if err := writeTrace(traceDir, w.name, seed, prov, tables); err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// buildSystem runs setup setups times and keeps the last system. Each
// set-up is timed in CPU seconds of the process (see processCPU).
func buildSystem(w workload, seed int64, n int) (runner, []float64, error) {
	var times []float64
	var r runner
	for k := 0; k < setups; k++ {
		if r != nil {
			r.close()
		}
		start := processCPU()
		var err error
		if r, err = w.setup(seed, n); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, (processCPU() - start).Seconds())
	}
	return r, times, nil
}

// tracedPass builds a fresh system of the kind a traced pass runs on
// and makes one pass with spans on, or off when tr is nil.
func tracedPass(w workload, seed int64, n int, tr *tracer) (passResult, map[string]metric, error) {
	if w.tracedSteps != nil {
		n = w.tracedSteps(n)
	}
	setup := w.setup
	if w.tracedSetup != nil {
		setup = w.tracedSetup
	}
	r, err := setup(seed, n)
	if err != nil {
		return passResult{}, nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	if tr == nil {
		return runPass(r, nil), nil, nil
	}
	tr.reset()
	p := runPass(r, tr)
	return p, r.layers(tr), nil
}

// A pass is cut into up to maxChunks contiguous chunks of equal step
// counts. Throughput is the median of the chunks' rates, and latency
// percentiles the median of the chunks' percentiles when every chunk
// holds minChunkOps ops, so a transient slowdown of the host moves one
// chunk rather than the run. Every chunk counts: leaving some out
// would bias workloads whose state grows through the pass (the
// tracker's write-ahead logs).
const (
	maxChunks   = 10
	minChunkOps = 20
)

// chunk is what one chunk of a pass measured.
type chunk struct {
	work   int
	cpu    time.Duration // process CPU time, exclusions left out
	wall   time.Duration // wall time, exclusions left out (reported on standard error only)
	lat    []time.Duration
	stolen float64 // share of the machine's CPU time the hypervisor took
}

// passResult is the outcome of one pass.
type passResult struct {
	ops, failed int
	chunks      []chunk
	heapPeak    uint64
	digest      string
	errs        []error
}

// workPerCPUSecond is the median of the chunks' work rates per CPU
// second of the process.
func (p passResult) workPerCPUSecond() float64 {
	var rates []float64
	for _, c := range p.chunks {
		if c.cpu > 0 {
			rates = append(rates, float64(c.work)/c.cpu.Seconds())
		}
	}
	if len(rates) == 0 {
		return 0
	}
	return median(rates)
}

// latencyMS is the median of the chunks' q-quantiles when each holds
// at least minChunkOps ops, and the q-quantile of all ops otherwise.
func (p passResult) latencyMS(q float64) float64 {
	var qs []float64
	var all []time.Duration
	small := len(p.chunks) == 0
	for _, c := range p.chunks {
		all = append(all, c.lat...)
		small = small || len(c.lat) < minChunkOps
		qs = append(qs, quantile(c.lat, q).Seconds()*1000)
	}
	if small {
		return quantile(all, q).Seconds() * 1000
	}
	return median(qs)
}

// runPass makes every step of r's pass and then runs its oracle.
func runPass(r runner, tr *tracer) passResult {
	steps := r.steps()
	m := newMeter(tr, steps)
	heap := newHeapSampler(steps)
	nChunks := min(steps, maxChunks)
	var chunks []chunk
	var doneWork, doneLat int
	var doneCPU, doneWall time.Duration
	// Every pass starts from a collected heap, so garbage left by
	// set-up does not decide when the pass's first GC runs.
	runtime.GC()
	host := readHostCPU()
	start, wallStart := processCPU(), time.Now()
	for i := 0; i < steps; i++ {
		if err := r.step(i, m); err != nil {
			m.fail(err)
		}
		tr.endOp()
		if heap.due(i) {
			m.exclude(func() { heap.sample(latencyRecordBytes(m)) })
		}
		if (i+1)*nChunks/steps != i*nChunks/steps {
			cpu := processCPU() - start - m.excluded
			wall := time.Since(wallStart) - m.excludedWall
			now := readHostCPU()
			chunks = append(chunks, chunk{work: m.work - doneWork, cpu: cpu - doneCPU, wall: wall - doneWall,
				lat: m.lat[doneLat:], stolen: now.stolenShareSince(host)})
			doneWork, doneCPU, doneWall, doneLat, host = m.work, cpu, wall, len(m.lat), now
		}
	}
	verifyErrs := r.verify()
	return passResult{
		ops:      m.ops,
		failed:   m.failed + len(verifyErrs),
		chunks:   chunks,
		heapPeak: heap.peak,
		digest:   r.digest(),
		errs:     append(m.errs, verifyErrs...),
	}
}

// latencyRecordBytes is the size of the meter's latency record, which
// heap samples leave out, so heap_peak_mb measures the program, not
// the run length.
func latencyRecordBytes(m *meter) uint64 {
	return uint64(cap(m.lat)) * 8 // a time.Duration is an int64
}

// quantile interpolates linearly between order statistics.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errList collects oracle failures.
type errList []error

func (l *errList) check(ok bool, format string, args ...any) {
	if !ok {
		*l = append(*l, fmt.Errorf(format, args...))
	}
}
