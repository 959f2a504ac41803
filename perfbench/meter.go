package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// meter collects what one pass measures: op latencies, work units,
// failures, and the CPU time spent on oracle checks and heap samples
// (excluded from the pass).
type meter struct {
	tr       *tracer
	lat      []time.Duration
	ops      int
	work     int
	failed   int
	errs     []error
	excluded time.Duration
	// excludedWall is the same exclusions in wall time.
	excludedWall time.Duration
}

func newMeter(tr *tracer, steps int) *meter {
	return &meter{tr: tr, lat: make([]time.Duration, 0, steps)}
}

// timeOp runs one op, recording its wall-clock latency and work.
func (m *meter) timeOp(fn func() (work int, err error)) error {
	start := time.Now()
	work, err := fn()
	m.record(time.Since(start), work)
	return err
}

// record notes one finished op.
func (m *meter) record(d time.Duration, work int) {
	m.lat = append(m.lat, d)
	m.ops++
	m.work += work
}

// fail counts one failed op.
func (m *meter) fail(err error) {
	m.failed++
	m.errs = append(m.errs, err)
}

// exclude runs an oracle check or a heap sample off the clock.
func (m *meter) exclude(fn func()) {
	start, wallStart := processCPU(), time.Now()
	fn()
	m.excluded += processCPU() - start
	m.excludedWall += time.Since(wallStart)
}

// hostCPU holds the machine-wide CPU time counters of /proc/stat, in
// clock ticks: all busy and idle time, and the part of it the
// hypervisor stole from this virtual machine for other tenants.
type hostCPU struct{ total, stolen uint64 }

// readHostCPU reads the aggregate line of /proc/stat. Where it cannot
// (not Linux), it returns zeros and every chunk counts as clean.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var c hostCPU
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		c.total += v
		if i == 7 {
			c.stolen = v
		}
	}
	return c
}

// stolenShareSince is the share of CPU time stolen since prev.
func (c hostCPU) stolenShareSince(prev hostCPU) float64 {
	if c.total <= prev.total || c.stolen < prev.stolen {
		return 0
	}
	return float64(c.stolen-prev.stolen) / float64(c.total-prev.total)
}

// heapSamples is how many step boundaries of a pass sample the heap.
const heapSamples = 16

// heapSampler tracks the peak live heap at evenly spaced step
// boundaries. Each sample collects garbage first, so it reads the heap
// the program retains between ops rather than wherever the last GC
// happened to fall.
type heapSampler struct {
	stride  int
	samples []metrics.Sample
	peak    uint64
}

func newHeapSampler(steps int) *heapSampler {
	return &heapSampler{
		stride:  max(1, steps/heapSamples),
		samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

// due reports whether the boundary after step i is sampled.
func (h *heapSampler) due(i int) bool { return (i+1)%h.stride == 0 }

// sample collects garbage and reads the live heap, less the given
// bytes the benchmark itself holds.
func (h *heapSampler) sample(own uint64) {
	runtime.GC()
	metrics.Read(h.samples)
	h.peak = max(h.peak, h.samples[0].Value.Uint64()-own)
}
