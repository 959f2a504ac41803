package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"sdnbugs/internal/cluster"
	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
)

// The failover workload: one op is one slot of a schedule of punts
// and management events, submitted through cluster.Ensemble.Submit
// and closed by EndSlot, while crash, partition, asymmetric-link and
// heal episodes hit the ensemble. The run is a sequence of epochs;
// each builds a fresh ensemble, plays foSlots slots and ends with Sync,
// and every replica must then fingerprint-match an unfaulted
// single-controller replay. Every epoch holds the same slots and the
// same episodes at the same slots; the seed only orders the slots.
var failoverWorkload = workload{
	name:         "failover",
	unit:         "event processed by the ensemble",
	opsPerSecond: 300000,
	setup:        newFailover,
}

const (
	foSlots    = 1000 // slots per epoch
	foReplicas = 3
	foLease    = 3
	foSwitches = 3 // faultlab's topology size
	// foSchedules is how many distinct epoch schedules a run cycles
	// through, which bounds the inputs held in memory and the
	// unfaulted replays the oracle makes.
	foSchedules = 16
	// foWarmEpochs is how many epochs the warm-up plays: each schedule
	// once.
	foWarmEpochs = foSchedules
)

var foServices = []string{"influxdb", "atomix"}

type foKind int

const (
	foConfig foKind = iota
	foPoisonConfig
	foExternal
	foReboot
	foUnicast
	foBroadcast
	foMirrorBroadcast
	foIdle
)

// foMix is how many of every 100 slots each kind fills: the class
// shares of faultlab's E22 campaign schedule, played the way E26's
// RunClusterCampaign plays it, with E22's wire-fault slots as idle
// slots (E26 skips them and only ends the slot).
var foMix = []struct {
	kind  foKind
	count int
}{
	{foConfig, 16}, {foPoisonConfig, 3}, {foExternal, 11}, {foReboot, 4},
	{foUnicast, 36}, {foBroadcast, 14}, {foMirrorBroadcast, 8}, {foIdle, 8},
}

type foItem struct {
	kind     foKind
	ev       sdn.Event
	src, dst uint64
}

type foEpisode int

const (
	foCrash foEpisode = iota
	foPartition
	foAsymmetric
	foHeal
)

// foController is the replica factory: faultlab's clean L2 controller
// on a linear topology.
func foController() (*sdn.Controller, error) {
	net, err := sdn.LinearTopology(foSwitches)
	if err != nil {
		return nil, err
	}
	env := sdn.NewEnvironment(foServices...)
	expected := map[string]int{}
	for _, s := range foServices {
		expected[s] = env.Versions[s]
	}
	return sdn.NewController(net, env, sdn.NewL2Switch(expected)), nil
}

// foItems is one epoch's slots before shuffling: every kind its foMix
// share, cycling through the hosts, host pairs, switches, services and
// configuration keys, so every epoch holds the same work.
func foItems(hosts, dpids []uint64) []foItem {
	var pairs [][2]uint64
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				pairs = append(pairs, [2]uint64{s, d})
			}
		}
	}
	items := make([]foItem, 0, foSlots)
	for _, mix := range foMix {
		for i := 0; i < mix.count*foSlots/100; i++ {
			it := foItem{kind: mix.kind}
			switch mix.kind {
			case foConfig:
				it.ev = sdn.Event{Kind: sdn.EventConfig,
					Key: fmt.Sprintf("vlan.zone%d", i%40), Value: fmt.Sprintf("%d", 100+i)}
			case foPoisonConfig:
				it.ev = sdn.Event{Kind: sdn.EventConfig, Key: fmt.Sprintf("multicast.group%d", i%8), Value: "225"}
			case foExternal:
				it.ev = sdn.Event{Kind: sdn.EventExternalCall, Service: foServices[i%len(foServices)]}
			case foReboot:
				it.ev = sdn.Event{Kind: sdn.EventHardwareReboot, DPID: dpids[i%len(dpids)]}
			case foUnicast:
				it.src, it.dst = pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]
			case foBroadcast, foMirrorBroadcast:
				it.src = hosts[i%len(hosts)]
			}
			items = append(items, it)
		}
	}
	return items
}

// foEpisodes is every epoch's failure schedule: E26's episodes
// (crash, partition, asymmetric link in turn, each healed a few slots
// after the lease expires) with each of E26's random gaps fixed at its
// mean, so every epoch suffers the same failures at the same slots.
func foEpisodes() map[int]foEpisode {
	eps := map[int]foEpisode{}
	kinds := []foEpisode{foCrash, foPartition, foAsymmetric}
	for k, cursor := 0, 40+15; cursor < foSlots-(foLease+60); k++ {
		eps[cursor] = kinds[k%len(kinds)]
		heal := cursor + foLease + 4 + 5
		eps[heal] = foHeal
		cursor = heal + 30 + 20
	}
	return eps
}

// foSchedule is one epoch's slots: foItems in an order drawn from seed.
// The seed decides only the order, not what the epoch holds.
func foSchedule(seed int64, base []foItem) []foItem {
	items := append([]foItem(nil), base...)
	rand.New(rand.NewSource(seed)).Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// pump injects one packet at src and submits every punt it causes,
// round by round, until the network is quiet — faultlab's pump.
func pump(net *sdn.Network, src uint64, p sdn.Packet, submit func(sdn.Event)) {
	net.DrainDeliveries()
	if _, err := net.InjectFromHost(src, p); err != nil {
		return
	}
	for round := 0; round < 32; round++ {
		pis := net.DrainPacketIns()
		if len(pis) == 0 {
			break
		}
		for i := range pis {
			submit(sdn.Event{Kind: sdn.EventNetwork, Msg: &pis[i]})
		}
	}
	net.DrainDeliveries()
}

func (it foItem) packet() sdn.Packet {
	switch it.kind {
	case foBroadcast:
		return sdn.Packet{EthDst: sdn.BroadcastMAC, EthType: 0x0806}
	case foMirrorBroadcast:
		return sdn.Packet{EthDst: sdn.BroadcastMAC, EthType: 0x0806, VlanID: faultlab.PoisonVLAN}
	}
	return sdn.Packet{EthDst: it.dst, EthType: 0x0800}
}

type failover struct {
	seed     int64
	n        int
	scheds   [][]foItem
	episodes map[int]foEpisode

	ens     *cluster.Ensemble
	pending []foItem
	// fingerprints holds every finished epoch's replica fingerprints,
	// interned, so a long run keeps one copy of each distinct string;
	// out digests every epoch's outcome as it finishes.
	fingerprints [][]string
	interned     map[string]string
	out          hash.Hash
	// expected holds each schedule's unfaulted fingerprint, computed
	// by verify.
	expected []string
	sups     map[*supervise.Supervisor]bool

	// The current op's tracer and span, for the calls made under it.
	tr *tracer
	op int

	// Per-layer accumulators (traced pass only, except counts).
	failovers, elections, ticks, tickN int
	submits, endSlots, shipped, syncs  int
	failoverDur, catchupDur            time.Duration
	failoverN, catchupN                int
	catchingUp                         bool
	restarts, denials                  int
}

func newFailover(seed int64, n int) (runner, error) {
	epochs := max(1, (n+foSlots-1)/foSlots)
	f := &failover{seed: seed, n: epochs * foSlots, interned: map[string]string{}, out: sha256.New()}
	probe, err := foController()
	if err != nil {
		return nil, err
	}
	base := foItems(probe.Net.Hosts(), probe.Net.Switches())
	f.episodes = foEpisodes()
	for e := 0; e < min(epochs, foSchedules); e++ {
		f.scheds = append(f.scheds, foSchedule(seed*7919+int64(e), base))
	}
	// Warm-up: play whole epochs of the run's first schedules, then
	// forget them.
	m := newMeter(nil, foWarmEpochs*foSlots)
	for i := 0; i < foWarmEpochs*foSlots; i++ {
		if err := f.step(i%f.n, m); err != nil {
			return nil, fmt.Errorf("warm-up slot %d: %w", i, err)
		}
	}
	if len(m.errs) > 0 {
		return nil, fmt.Errorf("warm-up: %v", m.errs[0])
	}
	*f = failover{seed: f.seed, n: f.n, scheds: f.scheds, episodes: f.episodes,
		interned: map[string]string{}, out: sha256.New()}
	return f, nil
}

func (f *failover) steps() int { return f.n }

func (f *failover) step(i int, m *meter) error {
	e, s := i/foSlots, i%foSlots
	f.tr = m.tr
	err := m.timeOp(func() (int, error) {
		f.op = f.tr.begin("failover.slot", -1)
		defer f.tr.end(f.op)
		var before int
		if s == 0 {
			ens, err := cluster.New(cluster.Config{
				Replicas: foReplicas, LeaseSlots: foLease,
				Factory: foController, Classify: faultlab.ClassifyEvent,
			})
			if err != nil {
				return 0, err
			}
			f.ens, f.pending = ens, f.pending[:0]
		} else {
			before = f.ens.Metrics.Processed
		}
		sched := e % len(f.scheds)
		if ep, ok := f.episodes[s]; ok {
			f.applyEpisode(ep)
		}
		it := f.scheds[sched][s]
		switch {
		case it.kind == foIdle:
			// E26 ends a wire-fault slot without playing deferred slots.
		case !f.ens.Available():
			f.pending = append(f.pending, it)
		default:
			for _, p := range f.pending {
				f.play(p)
			}
			f.pending = f.pending[:0]
			f.play(it)
		}
		f.endSlot()
		if s == foSlots-1 {
			f.finish()
		}
		return f.ens.Metrics.Processed - before, nil
	})
	if err != nil {
		return err
	}
	f.noteSupervisors()
	if s == foSlots-1 {
		m.exclude(func() { f.record(e, m) })
	}
	return nil
}

// play runs one schedule item against the serving primary.
func (f *failover) play(it foItem) {
	switch it.kind {
	case foConfig, foPoisonConfig, foExternal, foReboot:
		f.submit(it.ev)
	default:
		// Switches notice a dead master by keepalive and re-home before
		// traffic flows.
		f.timed(func() { f.ens.EnsureServing() })
		net := f.ens.Primary().C.Net
		pump(net, it.src, it.packet(), f.submit)
	}
}

func (f *failover) submit(ev sdn.Event) {
	sp := f.tr.begin("cluster.submit", f.op)
	f.timed(func() { f.ens.Submit(ev) })
	f.tr.end(sp)
	f.submits++
}

// timed runs an ensemble call and, in a traced pass, charges its wall
// to failover time when a failover happened inside it.
func (f *failover) timed(fn func()) time.Duration {
	if f.tr == nil {
		fn()
		return 0
	}
	before := f.ens.Metrics.Failovers
	start := time.Now()
	fn()
	d := time.Since(start)
	if f.ens.Metrics.Failovers > before {
		f.failoverDur += d
		f.failoverN += f.ens.Metrics.Failovers - before
	}
	return d
}

func (f *failover) endSlot() {
	logs := 0
	for _, r := range f.ens.Reps {
		logs += len(r.C.Log)
	}
	sp := f.tr.begin("cluster.end_slot", f.op)
	d := f.timed(f.ens.EndSlot)
	f.tr.end(sp)
	for _, r := range f.ens.Reps {
		logs -= len(r.C.Log)
	}
	f.shipped -= logs
	f.endSlots++
	if f.catchingUp {
		f.catchupDur += d
		if f.ens.Converged() {
			f.catchupN++
			f.catchingUp = false
		}
	}
}

func (f *failover) applyEpisode(ep foEpisode) {
	switch ep {
	case foCrash:
		f.ens.CrashPrimary()
	case foPartition:
		f.ens.Isolate(f.ens.Primary().ID)
	case foAsymmetric:
		p := f.ens.Primary().ID
		f.ens.Isolate(p)
		var standbys []int
		for i := range f.ens.Reps {
			if i != p {
				standbys = append(standbys, i)
			}
		}
		f.ens.BreakLink(standbys[0], standbys[1])
	case foHeal:
		f.noteSupervisors()
		f.ens.HealLinks()
		for i, r := range f.ens.Reps {
			if r.C.State == sdn.StateCrashed {
				f.catchingUp = true
			}
			_ = f.ens.Revive(i)
		}
	}
}

// finish is the epoch's quiet tail: heal, play deferred slots, Sync.
func (f *failover) finish() {
	f.ens.HealLinks()
	f.timed(func() { f.ens.EnsureServing() })
	for _, p := range f.pending {
		f.play(p)
	}
	f.pending = f.pending[:0]
	f.noteSupervisors()
	sp := f.tr.begin("cluster.sync", f.op)
	_ = f.ens.Sync()
	f.tr.end(sp)
	f.syncs++
}

// noteSupervisors remembers every supervisor the ensemble has used, so
// that restarts and denials of replicas replaced by Revive still count.
func (f *failover) noteSupervisors() {
	if f.ens == nil {
		return
	}
	if f.sups == nil {
		f.sups = map[*supervise.Supervisor]bool{}
	}
	for _, r := range f.ens.Reps {
		f.sups[r.Sup] = true
	}
}

// record stores the epoch's outcome and fails its last op when the
// ensemble lost or leaked an event.
func (f *failover) record(e int, m *meter) {
	em := f.ens.Metrics
	var fps []string
	for _, r := range f.ens.Reps {
		fp := cluster.StateFingerprint(r.C)
		if in, ok := f.interned[fp]; ok {
			fp = in
		} else {
			f.interned[fp] = fp
		}
		fps = append(fps, fp)
	}
	f.fingerprints = append(f.fingerprints, fps)
	fmt.Fprintf(f.out, "%v %d %d %d %d %d %v\n", fps, em.Offered, em.Processed,
		em.Elections, em.Failovers, em.FencedRejects, em.FailoverTicks)
	f.failovers += em.Failovers
	f.elections += em.Elections
	for _, t := range em.FailoverTicks {
		f.ticks += t
		f.tickN++
	}
	// The epoch's supervisors are final; count them and let the
	// ensemble go.
	for s := range f.sups {
		f.restarts += s.Metrics.Restarts
		f.denials += s.Metrics.BudgetDenials
	}
	f.sups = nil
	if em.Lost != 0 || em.FencedLeaks != 0 {
		m.fail(fmt.Errorf("failover: epoch %d lost %d events, leaked %d fenced writes",
			e, em.Lost, em.FencedLeaks))
	}
}

// unfaultedFingerprint replays an epoch's schedule on one clean
// controller with no failures — the state every replica must reach.
func unfaultedFingerprint(items []foItem) (string, error) {
	c, err := foController()
	if err != nil {
		return "", err
	}
	submit := func(ev sdn.Event) { _ = c.Submit(ev) }
	for _, it := range items {
		switch it.kind {
		case foIdle:
		case foConfig, foPoisonConfig, foExternal, foReboot:
			submit(it.ev)
		default:
			pump(c.Net, it.src, it.packet(), submit)
		}
	}
	return cluster.StateFingerprint(c), nil
}

func (f *failover) verify() []error {
	var errs errList
	errs.check(len(f.fingerprints) == f.n/foSlots, "failover: %d epochs finished, want %d", len(f.fingerprints), f.n/foSlots)
	if f.expected == nil {
		for i, items := range f.scheds {
			want, err := unfaultedFingerprint(items)
			if err != nil {
				errs.check(false, "failover: schedule %d reference: %v", i, err)
				return errs
			}
			f.expected = append(f.expected, want)
		}
	}
	for e, fps := range f.fingerprints {
		want := f.expected[e%len(f.expected)]
		for r, fp := range fps {
			errs.check(fp == want, "failover: epoch %d replica %d fingerprint %s, unfaulted replay %s", e, r, fp, want)
		}
	}
	return errs
}

func (f *failover) digest() string { return hex.EncodeToString(f.out.Sum(nil)) }

func (f *failover) layers(tr *tracer) map[string]metric {
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	return map[string]metric{
		"cluster.submit_ns_per_event":     {float64(tr.stat("cluster.submit").total.Nanoseconds()) / float64(max(f.submits, 1)), "ns"},
		"cluster.end_slot_us":             {1000 * mean(tr.stat("cluster.end_slot").total, f.endSlots), "us"},
		"cluster.shipped_events_per_slot": {float64(f.shipped) / float64(max(f.endSlots, 1)), "count"},
		"cluster.failover_ms":             {mean(f.failoverDur, f.failoverN), "ms"},
		"cluster.catchup_ms":              {mean(f.catchupDur, f.catchupN), "ms"},
		"cluster.sync_ms":                 {mean(tr.stat("cluster.sync").total, f.syncs), "ms"},
		"cluster.failovers":               {float64(f.failovers), "count"},
		"cluster.elections":               {float64(f.elections), "count"},
		"cluster.failover_ticks_mean":     {float64(f.ticks) / float64(max(f.tickN, 1)), "ticks"},
		"supervise.restarts":              {float64(f.restarts), "count"},
		"supervise.budget_denials":        {float64(f.denials), "count"},
	}
}

func (f *failover) close() {}
