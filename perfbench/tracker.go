package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/diskfault"
	"sdnbugs/internal/durable"
	"sdnbugs/internal/ghsim"
	"sdnbugs/internal/jirasim"
	"sdnbugs/internal/mine"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

// The tracker workload: one op is one HTTP request to a
// trackerd.Service with a JIRA shard and a GitHub shard on an
// in-memory filesystem, sent through an in-process RoundTripper (no
// sockets). One step is a full mine.Run pass — page fetches through
// the jirasim and ghsim clients over a resilience transport into a
// fresh miner store — followed by trIngests NDJSON /admin/ingest
// posts of trIngestBatch re-Put issues each.
var trackerWorkload = workload{
	name:         "tracker",
	unit:         "issue served or ingested",
	opsPerSecond: 6,
	setup:        newTracker,
}

const (
	trBase        = "http://trackerd.local"
	trTenant      = "t0"
	trPageSize    = 50
	trIngests     = 4
	trIngestBatch = 25
	trWarmPasses  = 3
)

type ingestBody struct {
	project string
	body    []byte
}

type trackerRun struct {
	n       int
	svc     *trackerd.Service
	rt      *resilience.Transport
	hc      *http.Client
	want    [sha256.Size]byte
	served  int
	bodies  []ingestBody
	next    int
	passSum [][sha256.Size]byte

	// The current pass's meter and spans, for the transports.
	m      *meter
	tr     *tracer
	parent int
	req    int

	// Per-layer accumulators.
	passes, pages, ingests       int
	passWall, passServer         time.Duration
	readServer, ingestServer     time.Duration
	records, syncs, largestBatch uint64
	retries0, retries            uint64
}

// newTracker serves the seed corpus, the one the study reports on, in
// every run, so every seed serves and writes the same bytes; the seed
// decides which issues each ingest batch re-Puts, and in which order.
func newTracker(seed int64, n int) (runner, error) {
	c, err := corpus.Generate(studyCorpusSeed)
	if err != nil {
		return nil, err
	}
	svc, err := trackerd.New(trackerd.Config{
		Root:    "trackerd",
		Durable: durable.Options{FS: diskfault.NewMemFS(), GroupCommit: true},
		Tenants: []trackerd.TenantConfig{{
			Name: trTenant,
			Projects: []trackerd.ProjectConfig{
				{Name: "bugs", Dialect: trackerd.DialectJIRA},
				{Name: "faucet", Dialect: trackerd.DialectGitHub, Repo: "faucetsdn/faucet", Controller: "FAUCET"},
			},
		}},
	})
	if err != nil {
		return nil, err
	}
	t := &trackerRun{n: n, svc: svc}
	jira, gh := svc.Shard(trTenant, "bugs"), svc.Shard(trTenant, "faucet")
	var jiraIssues, ghIssues []tracker.Issue
	for _, iss := range c.Issues {
		shard := gh
		if tracker.TrackerFor(iss.Controller) == tracker.KindJIRA {
			shard = jira
			jiraIssues = append(jiraIssues, iss)
		} else {
			ghIssues = append(ghIssues, iss)
		}
		if err := shard.DS.Put(iss); err != nil {
			t.close()
			return nil, fmt.Errorf("seed shard: %w", err)
		}
	}
	t.served = len(c.Issues)
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(issues []tracker.Issue) []tracker.Issue {
		out := append([]tracker.Issue(nil), issues...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	if t.bodies, err = ingestBodies(shuffled(jiraIssues), shuffled(ghIssues)); err != nil {
		t.close()
		return nil, err
	}

	t.rt = resilience.NewTransport(&serverSide{t: t}, resilience.Policy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
		PerAttemptTimeout: 30 * time.Second,
	}, nil)
	t.hc = &http.Client{Transport: &clientSide{t: t, next: t.rt}}

	// The served corpus: what a miner must end up with, computed from
	// the server's shards in the order its listings serve them.
	if t.want, err = servedCorpus(jira, gh); err != nil {
		t.close()
		return nil, err
	}
	m := newMeter(nil, trWarmPasses)
	for i := 0; i < trWarmPasses; i++ {
		if err := t.step(i, m); err != nil {
			t.close()
			return nil, fmt.Errorf("warm-up pass %d: %w", i, err)
		}
	}
	if len(m.errs) > 0 {
		t.close()
		return nil, fmt.Errorf("warm-up: %v", m.errs[0])
	}
	t.resetCounters()
	return t, nil
}

func (t *trackerRun) resetCounters() {
	t.next = 0
	t.passSum = nil
	t.passes, t.pages, t.ingests = 0, 0, 0
	t.passWall, t.passServer, t.readServer, t.ingestServer = 0, 0, 0, 0
	t.records, t.syncs, t.largestBatch = 0, 0, 0
	m := t.rt.Metrics()
	t.retries0 = m.Retries + m.BodyRetries
}

// ingestBodies pre-encodes NDJSON batches of trIngestBatch issues,
// alternating between the two shards.
func ingestBodies(jiraIssues, ghIssues []tracker.Issue) ([]ingestBody, error) {
	var out []ingestBody
	batches := func(project string, issues []tracker.Issue) ([]ingestBody, error) {
		var bs []ingestBody
		for start := 0; start+trIngestBatch <= len(issues); start += trIngestBatch {
			var buf bytes.Buffer
			for _, iss := range issues[start : start+trIngestBatch] {
				line, err := tracker.EncodeIssue(iss)
				if err != nil {
					return nil, err
				}
				buf.Write(line)
				buf.WriteByte('\n')
			}
			bs = append(bs, ingestBody{project: project, body: buf.Bytes()})
		}
		return bs, nil
	}
	jb, err := batches("bugs", jiraIssues)
	if err != nil {
		return nil, err
	}
	gb, err := batches("faucet", ghIssues)
	if err != nil {
		return nil, err
	}
	for i := 0; i < max(len(jb), len(gb)); i++ {
		if i < len(jb) {
			out = append(out, jb[i])
		}
		if i < len(gb) {
			out = append(out, gb[i])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus too small for one ingest batch")
	}
	return out, nil
}

// servedCorpus hashes the shards' issues as their wire dialects serve
// them (each dialect drops fields and precision), in the miner's corpus
// format (tracker.DurableStore.CorpusBytes), JIRA listing first, then
// GitHub.
func servedCorpus(jira, gh *trackerd.Shard) ([sha256.Size]byte, error) {
	var buf []byte
	for _, shard := range []*trackerd.Shard{jira, gh} {
		issues, _ := shard.DS.Store().List(tracker.Query{})
		for _, iss := range issues {
			var err error
			if shard == jira {
				iss, err = trackerd.FromJIRAWire(trackerd.ToJIRAWire(iss))
			} else {
				var wi trackerd.GHIssue
				if wi, err = trackerd.ToGHWire(iss); err == nil {
					iss = trackerd.FromGHWire(wi, tracker.FAUCET)
				}
			}
			if err != nil {
				return [sha256.Size]byte{}, err
			}
			v, err := tracker.EncodeIssue(iss)
			if err != nil {
				return [sha256.Size]byte{}, err
			}
			buf = append(buf, "issue/"+iss.ID+"\n"...)
			buf = append(buf, v...)
			buf = append(buf, '\n')
		}
	}
	return sha256.Sum256(buf), nil
}

// clientSide times every request as its client sees it: one op.
type clientSide struct {
	t    *trackerRun
	next http.RoundTripper
}

func (c *clientSide) RoundTrip(req *http.Request) (*http.Response, error) {
	t := c.t
	t.req = t.tr.begin("http.request", t.parent)
	start := time.Now()
	resp, err := c.next.RoundTrip(req)
	t.m.record(time.Since(start), 0)
	t.tr.end(t.req)
	return resp, err
}

// serverSide hands the request to the service in process.
type serverSide struct{ t *trackerRun }

func (s *serverSide) RoundTrip(req *http.Request) (*http.Response, error) {
	t := s.t
	rec := httptest.NewRecorder()
	sp := t.tr.begin("trackerd.serve", t.req)
	start := time.Now()
	t.svc.ServeHTTP(rec, req)
	d := time.Since(start)
	t.tr.end(sp)
	if req.Method == http.MethodPost {
		t.ingestServer += d
	} else {
		t.readServer += d
		t.passServer += d
		t.pages++
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func (t *trackerRun) steps() int { return t.n }

// step is one mining pass and its ingest posts.
func (t *trackerRun) step(i int, m *meter) error {
	t.m, t.tr = m, m.tr
	ctx := context.Background()
	root := t.tr.begin("tracker.step", -1)
	defer t.tr.end(root)

	ds, err := openMinerStore()
	if err != nil {
		return err
	}
	defer ds.Close()
	t.parent = t.tr.begin("mine.pass", root)
	start := time.Now()
	res, err := mine.Run(ctx, mine.Config{
		JIRA:   &jirasim.Client{BaseURL: trBase + "/t/" + trTenant + "/bugs", HTTPClient: t.hc, PageSize: trPageSize},
		GitHub: &ghsim.Client{BaseURL: trBase + "/t/" + trTenant + "/faucet", Repo: "faucetsdn/faucet", HTTPClient: t.hc, PerPage: trPageSize},
		Store:  ds,
	})
	t.passWall += time.Since(start)
	t.tr.end(t.parent)
	if err != nil {
		return fmt.Errorf("pass %d: %w", i, err)
	}
	t.passes++
	m.work += res.JIRAFetched + res.GitHubFetched
	m.exclude(func() {
		sum := sha256.Sum256(ds.CorpusBytes())
		t.passSum = append(t.passSum, sum)
		if sum != t.want || res.Total != t.served {
			m.fail(fmt.Errorf("tracker: pass %d mined %d issues with corpus sha256 %x, served corpus has %d issues and sha256 %x",
				i, res.Total, sum[:8], t.served, t.want[:8]))
		}
	})

	c0 := t.commitStats()
	for k := 0; k < trIngests; k++ {
		b := t.bodies[t.next]
		t.next = (t.next + 1) % len(t.bodies)
		t.parent = t.tr.begin("ingest.post", root)
		n, err := t.ingest(ctx, b)
		t.tr.end(t.parent)
		if err != nil {
			return fmt.Errorf("pass %d ingest %d: %w", i, k, err)
		}
		t.ingests++
		m.work += n
	}
	c1 := t.commitStats()
	t.records += c1.Records - c0.Records
	t.syncs += c1.Syncs - c0.Syncs
	t.largestBatch = max(t.largestBatch, c1.LargestBatch)

	rm := t.rt.Metrics()
	if r := rm.Retries + rm.BodyRetries; r != t.retries0+t.retries {
		m.fail(fmt.Errorf("tracker: %d retries in pass %d", r-t.retries0-t.retries, i))
		t.retries = r - t.retries0
	}
	return nil
}

func openMinerStore() (*tracker.DurableStore, error) {
	d, err := durable.Open("miner", durable.Options{FS: diskfault.NewMemFS()})
	if err != nil {
		return nil, err
	}
	ds, err := tracker.NewDurableStore(d)
	if err != nil {
		_ = d.Close()
		return nil, err
	}
	return ds, nil
}

// ingest posts one NDJSON batch and checks the service took all of it.
func (t *trackerRun) ingest(ctx context.Context, b ingestBody) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		trBase+"/t/"+trTenant+"/"+b.project+"/admin/ingest", bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := t.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest returned %s: %s", resp.Status, body)
	}
	var out struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("ingest reply: %w", err)
	}
	if out.Ingested != trIngestBatch {
		return 0, fmt.Errorf("ingested %d issues, want %d", out.Ingested, trIngestBatch)
	}
	return out.Ingested, nil
}

// commitStats sums the served shards' WAL commit counters.
func (t *trackerRun) commitStats() durable.CommitStats {
	var st durable.CommitStats
	for _, sh := range t.svc.Shards() {
		c := sh.DS.Durable().CommitStats()
		st.Records += c.Records
		st.Syncs += c.Syncs
		st.Batches += c.Batches
		st.LargestBatch = max(st.LargestBatch, c.LargestBatch)
	}
	return st
}

// verify checks that the served corpus itself is unchanged by the
// ingests (they re-Put identical issues), so every pass was compared
// with the corpus the service actually serves. Each pass has already
// checked its own corpus hash and retries.
func (t *trackerRun) verify() []error {
	var errs errList
	errs.check(t.passes == t.n, "tracker: %d passes finished, want %d", t.passes, t.n)
	now, err := servedCorpus(t.svc.Shard(trTenant, "bugs"), t.svc.Shard(trTenant, "faucet"))
	errs.check(err == nil && now == t.want, "tracker: served corpus changed during the run (%v)", err)
	return errs
}

func (t *trackerRun) digest() string {
	h := sha256.New()
	for _, s := range t.passSum {
		h.Write(s[:])
	}
	fmt.Fprintf(h, "%d %d %d", t.passes, t.pages, t.ingests)
	return hex.EncodeToString(h.Sum(nil))
}

func (t *trackerRun) layers(_ *tracer) map[string]metric {
	perSync := 0.0
	if t.syncs > 0 {
		perSync = float64(t.records) / float64(t.syncs)
	}
	us := func(d time.Duration, n int) float64 { return d.Seconds() * 1e6 / float64(max(n, 1)) }
	return map[string]metric{
		"trackerd.read_us_per_page":    {us(t.readServer, t.pages), "us"},
		"trackerd.ingest_us_per_issue": {us(t.ingestServer, t.ingests*trIngestBatch), "us"},
		"mine.self_ms_per_pass":        {ms(t.passWall-t.passServer) / float64(max(t.passes, 1)), "ms"},
		"durable.records_per_sync":     {perSync, "count"},
		"durable.largest_batch":        {float64(t.largestBatch), "count"},
		"resilience.retries":           {float64(t.retries), "count"},
	}
}

func (t *trackerRun) close() {
	if t.svc != nil {
		_ = t.svc.Close()
	}
}
