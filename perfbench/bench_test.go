package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sdnbugs/internal/openflow"
)

// tinySteps is the smallest run of each workload: one study op, one
// dataplane cycle, one failover epoch, one tracker pass.
const tinySteps = 1

func setupTiny(t *testing.T, w workload) runner {
	t.Helper()
	r, err := w.setup(3, tinySteps)
	if err != nil {
		t.Fatalf("%s setup: %v", w.name, err)
	}
	t.Cleanup(r.close)
	return r
}

func skipStudyIfShort(t *testing.T, w workload) {
	if testing.Short() && w.name == "study" {
		t.Skip("study ops take seconds each")
	}
}

// TestTinyRunsPassOracle: a tiny run of every workload passes its
// oracle with no failed op.
func TestTinyRunsPassOracle(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipStudyIfShort(t, w)
			p := runPass(setupTiny(t, w), nil)
			if p.failed != 0 || len(p.errs) != 0 {
				t.Fatalf("%d failed ops: %v", p.failed, p.errs)
			}
			lat := 0
			for _, c := range p.chunks {
				lat += len(c.lat)
			}
			if p.ops == 0 || lat != p.ops || p.workPerCPUSecond() <= 0 || p.latencyMS(0.9) <= 0 {
				t.Fatalf("empty pass: ops %d, %d latencies, %v work/s", p.ops, lat, p.workPerCPUSecond())
			}
		})
	}
}

// TestTracedMatchesUntraced: a traced pass over a fresh system gives
// outputs identical to an untraced one.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipStudyIfShort(t, w)
			base := runPass(setupTiny(t, w), nil)
			tp, layers, err := tracedPass(w, 3, tinySteps, newTracer(w.name))
			if err != nil {
				t.Fatal(err)
			}
			if tp.failed != 0 {
				t.Fatalf("traced pass: %d failed: %v", tp.failed, tp.errs)
			}
			if tp.digest != base.digest {
				t.Fatalf("traced digest %s, untraced %s", tp.digest, base.digest)
			}
			if len(layers) == 0 {
				t.Fatal("traced pass reported no per-layer metrics")
			}
		})
	}
}

// corrupting wraps a runner and damages its expected output or its
// output just before the oracle runs.
type corrupting struct {
	runner
	corrupt func()
}

func (c corrupting) verify() []error {
	c.corrupt()
	return c.runner.verify()
}

// TestCorruptedExpectationCountsAsFailure: a deliberately wrong expected
// output is counted as a failure, not ignored.
func TestCorruptedExpectationCountsAsFailure(t *testing.T) {
	cases := map[string]func(r runner){
		"study": func(r runner) {
			s := r.(*studyRun)
			s.results[0][0].Accuracies[studyModels[0]] += 1e-12
		},
		"dataplane": func(r runner) {
			d := r.(*dataplane)
			sw, _ := d.swNet.Switch(1)
			e := sw.Table.Entries()[0]
			sw.Table.Delete(e.Match)
		},
		"failover": func(r runner) {
			f := r.(*failover)
			if err := f.verify(); len(err) != 0 {
				t.Errorf("failover oracle failed before corruption: %v", err)
			}
			f.expected[0] = "x" + f.expected[0][1:]
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipStudyIfShort(t, w)
			r := setupTiny(t, w)
			corrupt := cases[w.name]
			if w.name == "tracker" {
				// The tracker's oracle runs per pass: corrupt before it.
				tr := r.(*trackerRun)
				tr.want[0] ^= 1
				p := runPass(tr, nil)
				if p.failed == 0 {
					t.Fatal("a corrupted served-corpus hash was not counted as a failure")
				}
				return
			}
			p := runPass(corrupting{runner: r, corrupt: func() { corrupt(r) }}, nil)
			if p.failed == 0 || len(p.errs) == 0 {
				t.Fatal("a corrupted expected output was not counted as a failure")
			}
		})
	}
}

// TestDataplaneReferenceFixedPoint: from the second cycle on, the
// controller state is a fixed point of the traffic cycle, which is what
// lets the oracle compare any whole-cycle run with a two-cycle replay.
func TestDataplaneReferenceFixedPoint(t *testing.T) {
	cycle, err := dataplaneCycle(5)
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := dataplaneReference(cycle, 2)
	if err != nil {
		t.Fatal(err)
	}
	three, _, err := dataplaneReference(cycle, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(two, three) {
		t.Fatal("controller state after 2 and 3 cycles differs")
	}
}

// TestDataplaneFrameSizes: frames are dpSmallFrame bytes, one in
// dpLargeEvery dpLargeFrame bytes.
func TestDataplaneFrameSizes(t *testing.T) {
	cycle, err := dataplaneCycle(9)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	for i := range cycle {
		b, err := openflow.AppendEncode(nil, &cycle[i].pi, 1)
		if err != nil {
			t.Fatal(err)
		}
		sizes[len(b)]++
	}
	if len(sizes) != 2 || sizes[dpLargeFrame] != len(cycle)/dpLargeEvery || len(cycle)%dpBurst != 0 {
		t.Fatalf("frame sizes %v over %d punts", sizes, len(cycle))
	}
}

// TestFailoverSeedOnlyOrdersSlots: every seed's epoch holds the same
// slots, in E26's shares, and every epoch the same episodes.
func TestFailoverSeedOnlyOrdersSlots(t *testing.T) {
	c, err := foController()
	if err != nil {
		t.Fatal(err)
	}
	base := foItems(c.Net.Hosts(), c.Net.Switches())
	count := func(items []foItem) map[string]int {
		m := map[string]int{}
		for _, it := range items {
			m[fmt.Sprintf("%d %s %s %d %d %d", it.kind, it.ev.Key, it.ev.Service, it.ev.DPID, it.src, it.dst)]++
		}
		return m
	}
	a, b := foSchedule(1, base), foSchedule(2, base)
	if reflect.DeepEqual(a, b) {
		t.Fatal("two seeds gave the same slot order")
	}
	if !reflect.DeepEqual(count(a), count(b)) || len(a) != foSlots {
		t.Fatal("two seeds' epochs hold different slots")
	}
	kinds := map[foKind]int{}
	for _, it := range a {
		kinds[it.kind]++
	}
	for _, mix := range foMix {
		if kinds[mix.kind] != mix.count*foSlots/100 {
			t.Errorf("kind %d: %d slots, want %d", mix.kind, kinds[mix.kind], mix.count*foSlots/100)
		}
	}
	eps := foEpisodes()
	if len(eps) != 30 || !reflect.DeepEqual(eps, foEpisodes()) {
		t.Fatalf("%d episode slots, want 30 (15 episodes and their heals)", len(eps))
	}
}

// TestStudySplitsSeedOnlyOrders: every seed validates the same split
// seeds, and a shorter run makes the first ops of a longer one.
func TestStudySplitsSeedOnlyOrders(t *testing.T) {
	a, b := studySplits(1, 2*studyBlock), studySplits(2, 2*studyBlock)
	if reflect.DeepEqual(a, b) {
		t.Fatal("two seeds gave the same order")
	}
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.Sort(sa)
	slices.Sort(sb)
	if !reflect.DeepEqual(sa, sb) || len(slices.Compact(sa)) != 2*studyBlock {
		t.Fatal("two seeds validate different or repeated split seeds")
	}
	if !reflect.DeepEqual(studySplits(1, 3), a[:3]) {
		t.Fatal("a three-op run is not the start of a longer one")
	}
}

// TestTrackerSeedsServeSameCorpus: every seed serves the same corpus.
func TestTrackerSeedsServeSameCorpus(t *testing.T) {
	var want [][32]byte
	for _, seed := range []int64{1, 2} {
		r, err := newTracker(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r.(*trackerRun).want)
		r.close()
	}
	if want[0] != want[1] {
		t.Fatal("two seeds serve different corpora")
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	for q, want := range map[float64]time.Duration{0: 1, 0.5: 3, 0.9: 4, 1: 5} {
		if got := quantile(ds, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestSelfTime: a span's self time excludes the union of its
// children, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 80, End: 120}}
	if got := covered(parent, kids); got != 60 {
		t.Fatalf("covered = %d, want 60", got)
	}
}

// TestTracerConcurrentSpans: the study grid records spans from worker
// goroutines under one parent; every span must be kept and folded.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer("test")
	root := tr.begin("root", -1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.end(tr.begin("cell", root))
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	tr.endOp()
	if got := tr.stat("cell").count; got != 2000 {
		t.Fatalf("%d cell spans, want 2000", got)
	}
	if st := tr.stat("root"); st.count != 1 || st.self > st.total {
		t.Fatalf("root span %+v", st)
	}
}

// TestBadArgumentsPrintNoResult: unknown workloads fail without a
// result line.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q", out.String())
	}
}

// benchmarkSpec is the part of BENCHMARK.json the result must match.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastResult runs the command and decodes its last output line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "--trace-dir", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s unit %q, want %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for k := range got {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		t.Errorf("reported %v, want exactly %v", extra, names)
	}
}

// TestResultLineMatchesSpec: an untraced run reports exactly the
// end-to-end metrics of BENCHMARK.json, all non-zero.
func TestResultLineMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	res := lastResult(t, "--workload", "dataplane", "--seed", "4", "--seconds", "1")
	checkMetrics(t, res.Metrics, spec.EndToEnd)
	for k, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v", k, m.Value)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric: a traced run reports exactly
// the per-layer metrics of BENCHMARK.json.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run probes the study workload")
	}
	spec := loadSpec(t)
	res := lastResult(t, "--workload", "failover", "--seed", "4", "--seconds", "1", "--trace", "1")
	checkMetrics(t, res.Metrics, spec.PerLayer)
}
