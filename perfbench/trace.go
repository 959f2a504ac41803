package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code
// around the call. Spans of one op share Op; Parent is the ID of the
// enclosing span within the op, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerStat aggregates every span of one name.
type layerStat struct {
	count int
	total time.Duration
	self  time.Duration
	max   time.Duration
}

// keptOps is how many ops' spans a tracer keeps for the trace file;
// every op still feeds the aggregates.
const keptOps = 200

// tracer records spans in memory. A nil *tracer records nothing, so
// workload code calls it unconditionally and untraced passes pay one
// nil check per call. Safe for concurrent use: the study grid records
// spans from worker goroutines.
type tracer struct {
	workload string

	mu    sync.Mutex
	epoch time.Time
	op    int
	cur   []span
	kept  []span
	stats map[string]*layerStat
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload}
	t.reset()
	return t
}

func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = time.Now()
	t.op = 0
	t.cur = t.cur[:0]
	t.kept = nil
	t.stats = map[string]*layerStat{}
}

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.cur)
	t.cur = append(t.cur, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur[id].End = now
}

// endOp folds the current op's spans into the aggregates: a span's
// self time is its duration minus the part of it its children cover.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.cur {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.cur {
		if s.End < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		st := t.stats[s.Name]
		if st == nil {
			st = &layerStat{}
			t.stats[s.Name] = st
		}
		st.count++
		st.total += d
		st.self += d - covered(s, children[s.ID])
		st.max = max(st.max, d)
	}
	if t.op < keptOps {
		t.kept = append(t.kept, t.cur...)
	}
	t.cur = t.cur[:0]
	t.op++
}

// covered returns how much of parent's interval the union of kids
// spans; concurrent children (the study grid) overlap.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	total += curEnd - curStart
	return time.Duration(total)
}

// stat returns the aggregate of one span name (zero if never seen).
func (t *tracer) stat(name string) layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stats[name]; st != nil {
		return *st
	}
	return layerStat{}
}

// ops returns how many ops have ended.
func (t *tracer) ops() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.op
}

// printTable writes the per-layer self-time table, largest self time
// first.
func (t *tracer) printTable(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.stats))
	var all time.Duration
	for n, st := range t.stats {
		names = append(names, n)
		all += st.self
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := t.stats[names[i]], t.stats[names[j]]
		if a.self != b.self {
			return a.self > b.self
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "\nper-layer self time, workload %s (%d ops)\n", t.workload, t.op)
	fmt.Fprintf(w, "%-28s %10s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, n := range names {
		st := t.stats[n]
		pct := 0.0
		if all > 0 {
			pct = 100 * float64(st.self) / float64(all)
		}
		fmt.Fprintf(w, "%-28s %10d %12.3f %12.3f %6.1f%%\n", n, st.count,
			ms(st.total), ms(st.self), pct)
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Provenance provenance      `json:"provenance"`
	Workloads  []workloadTrace `json:"workloads"`
}

type workloadTrace struct {
	Workload string               `json:"workload"`
	Ops      int                  `json:"ops"`
	Layers   map[string]layerJSON `json:"layers"`
	Spans    []span               `json:"spans"`
}

type layerJSON struct {
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// writeTrace writes every tracer's kept spans and aggregates to
// dir/<workload>-seed<seed>.json.
func writeTrace(dir, workload string, seed int64, prov provenance, tracers []*tracer) error {
	doc := traceFile{Provenance: prov}
	for _, t := range tracers {
		t.mu.Lock()
		wt := workloadTrace{Workload: t.workload, Ops: t.op, Layers: map[string]layerJSON{}, Spans: t.kept}
		for n, st := range t.stats {
			wt.Layers[n] = layerJSON{Spans: st.count, TotalMS: ms(st.total), SelfMS: ms(st.self), MaxMS: ms(st.max)}
		}
		t.mu.Unlock()
		doc.Workloads = append(doc.Workloads, wt)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}
