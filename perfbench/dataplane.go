package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"sdnbugs/internal/ofconn"
	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
)

// The dataplane workload: one op is one burst round trip. The switch
// side frames dpBurst PacketIns with openflow.AppendEncode into an
// in-memory transport; the controller side reads them with
// ofconn.FrameReader.ReadBatch and runs sdn.Controller.ProcessBatch
// with sdn.L2Switch; one FlowMod or PacketOut per punt goes back
// through ofconn.Conn.SendBatch and is applied by
// ofconn.SwitchAgent.ServeBatch to the switch side's network.
var dataplaneWorkload = workload{
	name:         "dataplane",
	unit:         "punted packet",
	opsPerSecond: 12000,
	setup:        newDataplane,
}

const (
	// dpSwitches is the length of the linear topology (one host each).
	dpSwitches = 8
	// dpBurst is how many punts one op frames.
	dpBurst = 64
	// dpSmallFrame and dpLargeFrame are the PacketIn frame sizes; one
	// punt in dpLargeEvery is large.
	dpSmallFrame = 64
	dpLargeFrame = 1500
	dpLargeEvery = 8
	// dpCopies is how many copies of the traffic one cycle holds: two
	// copies of the 288 punts fill exactly 9 bursts.
	dpCopies = 2
	// dpRefCycles is how many traffic cycles the per-event reference
	// replays: from the second cycle on, the controller's state is a
	// fixed point of the cycle, so any run of two or more whole cycles
	// ends in the same state.
	dpRefCycles = 2
	// dpWarmShare is the share of the pass's bursts the warm-up runs.
	dpWarmShare = 20
)

// punt is one switch-side PacketIn and the destination it carries.
type punt struct {
	pi  openflow.PacketIn
	dst uint64
}

// dataplaneCycle generates one period of switch-side punts: dpCopies
// copies of every ordered host pair's unicast punts at each switch on
// its path and every host's broadcast punted at every switch. One
// unicast and one broadcast punt in dpLargeEvery carries a
// dpLargeFrame-byte frame, the rest dpSmallFrame bytes. The seed
// shuffles which punts are large and how punts fall into bursts, but
// every burst gets the same mix of the four classes (within one punt),
// so the bursts of every seed cost alike.
func dataplaneCycle(seed int64) ([]punt, error) {
	rng := rand.New(rand.NewSource(seed))
	empty, err := openflow.AppendEncode(nil, &openflow.PacketIn{}, 1)
	if err != nil {
		return nil, err
	}
	mac := func(i int) uint64 { return uint64(0x10 + i) }
	inPort := func(at, from int) uint32 {
		switch {
		case at == from:
			return 1
		case at > from:
			return 2
		default:
			return 3
		}
	}
	type raw struct {
		at, from int
		dst      uint64
	}
	var unicast, broadcast []raw
	for c := 0; c < dpCopies; c++ {
		for a := 1; a <= dpSwitches; a++ {
			for b := 1; b <= dpSwitches; b++ {
				if a == b {
					continue
				}
				dir := 1
				if b < a {
					dir = -1
				}
				for s := a; ; s += dir {
					unicast = append(unicast, raw{s, a, mac(b)})
					if s == b {
						break
					}
				}
			}
			for s := 1; s <= dpSwitches; s++ {
				broadcast = append(broadcast, raw{s, a, sdn.BroadcastMAC})
			}
		}
	}
	total := len(unicast) + len(broadcast)
	if total%dpBurst != 0 {
		return nil, fmt.Errorf("%d punts per cycle do not fill whole bursts of %d", total, dpBurst)
	}
	bursts := total / dpBurst

	// Deal the classes round-robin into bursts, then shuffle each burst.
	dealt := make([][]punt, bursts)
	j := 0
	for _, class := range [][]raw{broadcast, unicast} {
		rng.Shuffle(len(class), func(a, b int) { class[a], class[b] = class[b], class[a] })
		large := len(class) / dpLargeEvery
		for k, r := range class {
			size := dpSmallFrame
			if k < large {
				size = dpLargeFrame
			}
			pkt := sdn.Packet{EthSrc: mac(r.from), EthDst: r.dst, EthType: 0x0800}
			if r.dst == sdn.BroadcastMAC {
				pkt.EthType = 0x0806
			}
			pkt.Payload = make([]byte, max(0, size-len(empty)-20))
			rng.Read(pkt.Payload)
			p := punt{dst: r.dst, pi: openflow.PacketIn{
				DatapathID: uint64(r.at), InPort: inPort(r.at, r.from), Data: sdn.EncodePacket(pkt)}}
			dealt[j%bursts] = append(dealt[j%bursts], p)
			j++
		}
	}
	ps := make([]punt, 0, total)
	for _, b := range dealt {
		rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		ps = append(ps, b...)
	}
	return ps, nil
}

// rw joins a reader and a writer into one transport end.
type rw struct {
	io.Reader
	io.Writer
}

type dataplane struct {
	cycle []punt
	n     int

	// Switch side.
	swNet   *sdn.Network
	toCtl   bytes.Buffer
	toSw    bytes.Buffer
	agentTx bytes.Buffer // error replies from the agent; must stay empty
	agent   *ofconn.SwitchAgent
	xid     uint32
	enc     []byte // the switch side's reused framing buffer

	// Controller side.
	ctlNet *sdn.Network
	ctl    *sdn.Controller
	app    *sdn.L2Switch
	fr     *ofconn.FrameReader
	conn   *ofconn.Conn
	frames []ofconn.Frame
	events []sdn.Event
	costs  []int
	msgs   []openflow.Message
	fms    [dpBurst]openflow.FlowMod
	pos    [dpBurst]openflow.PacketOut
	next   int // next punt of the cycle

	// Counters.
	punts, flowMods, packetOuts, deliveries int
	reads, framesRead, served               int

	// measureAllocs makes bursts count allocations inside ProcessBatch.
	measureAllocs           bool
	sdnAllocs, sdnAllocEvts uint64
}

var floodActions = []openflow.Action{{Type: openflow.ActionOutput, Port: openflow.PortFlood}}

func newDataplane(seed int64, n int) (runner, error) {
	cycle, err := dataplaneCycle(seed)
	if err != nil {
		return nil, err
	}
	d, err := buildDataplane(cycle, n)
	if err != nil {
		return nil, err
	}
	// Warm-up: whole cycles, so the timed pass starts at the cycle's
	// fixed point with buffers, codec rings and tables filled.
	warm := max(dpRefCycles*d.burstsPerCycle(), d.roundUp(d.n/dpWarmShare))
	for i := 0; i < warm; i++ {
		if _, err := d.burst(nil); err != nil {
			return nil, fmt.Errorf("warm-up burst %d: %w", i, err)
		}
	}
	d.punts, d.flowMods, d.packetOuts, d.deliveries = 0, 0, 0, 0
	d.reads, d.framesRead, d.served = 0, 0, 0
	return d, nil
}

func buildDataplane(cycle []punt, n int) (*dataplane, error) {
	d := &dataplane{cycle: cycle}
	d.n = d.roundUp(n)
	var err error
	if d.swNet, err = sdn.LinearTopology(dpSwitches); err != nil {
		return nil, err
	}
	if d.ctlNet, err = sdn.LinearTopology(dpSwitches); err != nil {
		return nil, err
	}
	d.app = sdn.NewL2Switch(nil)
	d.ctl = sdn.NewController(d.ctlNet, sdn.NewEnvironment(), d.app, d.recordCost)
	d.fr = ofconn.NewFrameReader(&d.toCtl)
	d.conn = ofconn.New(rw{Reader: eofReader{}, Writer: &d.toSw})
	d.agent = &ofconn.SwitchAgent{Conn: ofconn.New(rw{Reader: &d.toSw, Writer: &d.agentTx}), Net: d.swNet}
	d.frames = make([]ofconn.Frame, 0, dpBurst)
	d.events = make([]sdn.Event, 0, dpBurst)
	d.costs = make([]int, 0, dpBurst)
	d.msgs = make([]openflow.Message, 0, dpBurst)
	return d, nil
}

// eofReader is the controller connection's unused read side.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// recordCost is controller middleware that notes each event's handler
// cost: the L2 app charges 3 ticks exactly when it installed a flow.
func (d *dataplane) recordCost(next sdn.HandlerFunc) sdn.HandlerFunc {
	return func(c *sdn.Controller, ev sdn.Event) (int, error) {
		cost, err := next(c, ev)
		d.costs = append(d.costs, cost)
		return cost, err
	}
}

const flowInstalledCost = 3

func (d *dataplane) burstsPerCycle() int { return len(d.cycle) / dpBurst }

// roundUp rounds n bursts up to whole cycles.
func (d *dataplane) roundUp(n int) int {
	bpc := d.burstsPerCycle()
	return max(1, (n+bpc-1)/bpc) * bpc
}

func (d *dataplane) steps() int { return d.n }

func (d *dataplane) step(_ int, m *meter) error {
	return m.timeOp(func() (int, error) { return d.burst(m.tr) })
}

// burst is one op: frame, read, process, reply, apply.
func (d *dataplane) burst(tr *tracer) (int, error) {
	op := tr.begin("dataplane.burst", -1)
	defer tr.end(op)
	base := d.next
	d.next = (d.next + dpBurst) % len(d.cycle)

	sp := tr.begin("openflow.encode", op)
	d.enc = d.enc[:0]
	var err error
	for k := 0; k < dpBurst && err == nil; k++ {
		d.xid++
		d.enc, err = openflow.AppendEncode(d.enc, &d.cycle[base+k].pi, d.xid)
	}
	tr.end(sp)
	d.toCtl.Write(d.enc)
	if err != nil {
		return 0, fmt.Errorf("encode: %w", err)
	}

	for done := 0; done < dpBurst; {
		sp = tr.begin("ofconn.read_batch", op)
		d.frames, err = d.fr.ReadBatch(d.frames[:0])
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("read batch: %w", err)
		}
		d.reads++
		d.framesRead += len(d.frames)
		// Frames alias the reader's buffer until the next ReadBatch, so
		// each batch is processed and answered before reading again.
		if err := d.answer(d.cycle[base+done:base+done+len(d.frames)], tr, op); err != nil {
			return 0, err
		}
		done += len(d.frames)
	}

	sent := d.flowMods + d.packetOuts
	for d.served < sent {
		sp = tr.begin("ofconn.serve_batch", op)
		n, err := d.agent.ServeBatch()
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("serve batch: %w", err)
		}
		d.served += n
	}
	if d.agentTx.Len() != 0 {
		return 0, fmt.Errorf("switch agent replied with %d bytes of errors", d.agentTx.Len())
	}
	// Drain both sides' punt and delivery queues, as faultlab's pump
	// does; cut the controller log back, as a checkpointed controller
	// would (its events alias frames the next read overwrites).
	d.deliveries += len(d.swNet.DrainDeliveries())
	d.swNet.DrainPacketIns()
	d.ctlNet.DrainDeliveries()
	d.ctlNet.DrainPacketIns()
	d.ctl.Log = d.ctl.Log[:0]
	d.punts += dpBurst
	return dpBurst, nil
}

// answer runs one read batch through the controller and sends one
// FlowMod (when the app installed a flow) or flood PacketOut per punt.
func (d *dataplane) answer(ps []punt, tr *tracer, op int) error {
	d.events = d.events[:0]
	for _, f := range d.frames {
		d.events = append(d.events, sdn.Event{Kind: sdn.EventNetwork, Msg: f.Msg})
	}
	d.costs = d.costs[:0]
	var ms0 runtime.MemStats
	if d.measureAllocs {
		runtime.ReadMemStats(&ms0)
	}
	sp := tr.begin("sdn.process_batch", op)
	processed, err := d.ctl.ProcessBatch(d.events)
	tr.end(sp)
	if d.measureAllocs {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		d.sdnAllocs += ms1.Mallocs - ms0.Mallocs
		d.sdnAllocEvts += uint64(len(d.events))
	}
	if err != nil || processed != len(d.events) || len(d.costs) != len(d.events) {
		return fmt.Errorf("process batch: %d of %d events: %v", processed, len(d.events), err)
	}

	d.msgs = d.msgs[:0]
	for k, f := range d.frames {
		pi, ok := f.Msg.(*openflow.PacketIn)
		if !ok {
			return fmt.Errorf("frame %d is %v, want packet-in", k, f.Msg.Type())
		}
		if d.costs[k] == flowInstalledCost {
			sw, err := d.ctlNet.Switch(pi.DatapathID)
			if err != nil {
				return err
			}
			e := sw.Table.Lookup(sdn.Packet{EthDst: ps[k].dst}, pi.InPort)
			if e == nil {
				return fmt.Errorf("app installed no flow for %x at switch %d", ps[k].dst, pi.DatapathID)
			}
			d.fms[k] = openflow.FlowMod{DatapathID: pi.DatapathID, Command: openflow.FlowAdd,
				Priority: e.Priority, Match: e.Match, Actions: e.Actions}
			d.msgs = append(d.msgs, &d.fms[k])
			d.flowMods++
			continue
		}
		d.pos[k] = openflow.PacketOut{DatapathID: pi.DatapathID, InPort: pi.InPort, Actions: floodActions, Data: pi.Data}
		d.msgs = append(d.msgs, &d.pos[k])
		d.packetOuts++
	}
	sp = tr.begin("ofconn.send", op)
	_, err = d.conn.SendBatch(d.msgs)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("send batch: %w", err)
	}
	return nil
}

// dpState is what the oracle compares: every switch's flow table on
// both sides and the app's learned MACs.
type dpState struct {
	tables map[uint64][]sdn.FlowEntry
	macs   any
}

func tablesOf(net *sdn.Network) map[uint64][]sdn.FlowEntry {
	out := map[uint64][]sdn.FlowEntry{}
	for _, id := range net.Switches() {
		sw, _ := net.Switch(id)
		out[id] = sw.Table.Entries()
	}
	return out
}

// dataplaneReference replays cycles of the traffic through a fresh
// controller one Submit per event, with no wire in between.
func dataplaneReference(cycle []punt, cycles int) (dpState, *sdn.Controller, error) {
	net, err := sdn.LinearTopology(dpSwitches)
	if err != nil {
		return dpState{}, nil, err
	}
	app := sdn.NewL2Switch(nil)
	c := sdn.NewController(net, sdn.NewEnvironment(), app)
	for r := 0; r < cycles; r++ {
		for i := range cycle {
			pi := cycle[i].pi
			if err := c.Submit(sdn.Event{Kind: sdn.EventNetwork, Msg: &pi}); err != nil {
				return dpState{}, nil, err
			}
			net.DrainPacketIns()
			net.DrainDeliveries()
		}
	}
	return dpState{tables: tablesOf(net), macs: app.Snapshot()}, c, nil
}

// verify checks the final switch flow tables, the controller's own
// tables and its learned MACs against the per-event reference.
func (d *dataplane) verify() []error {
	var errs errList
	ref, refCtl, err := dataplaneReference(d.cycle, dpRefCycles)
	if err != nil {
		errs.check(false, "dataplane: reference: %v", err)
		return errs
	}
	errs.check(reflect.DeepEqual(tablesOf(d.swNet), ref.tables), "dataplane: switch flow tables differ from the per-event reference")
	errs.check(reflect.DeepEqual(tablesOf(d.ctlNet), ref.tables), "dataplane: controller flow tables differ from the per-event reference")
	errs.check(reflect.DeepEqual(d.app.Snapshot(), ref.macs), "dataplane: learned MACs differ from the per-event reference")
	errs.check(d.ctl.Stats.ErrorsLogged == 0 && refCtl.Stats.ErrorsLogged == 0,
		"dataplane: controller logged %d errors (reference %d)", d.ctl.Stats.ErrorsLogged, refCtl.Stats.ErrorsLogged)
	errs.check(d.ctl.State == sdn.StateRunning, "dataplane: controller %v", d.ctl.State)
	errs.check(d.punts == d.n*dpBurst, "dataplane: %d punts, want %d", d.punts, d.n*dpBurst)
	errs.check(d.served == d.flowMods+d.packetOuts && d.flowMods+d.packetOuts == d.punts,
		"dataplane: %d replies sent, %d served, %d punts", d.flowMods+d.packetOuts, d.served, d.punts)
	return errs
}

func (d *dataplane) digest() string {
	h := sha256.New()
	tables := tablesOf(d.swNet)
	ids := make([]uint64, 0, len(tables))
	for id := range tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(h, "%d %+v\n", id, tables[id])
	}
	fmt.Fprintf(h, "%v\n", d.app.Snapshot())
	fmt.Fprintf(h, "%d %d %d %d\n", d.punts, d.flowMods, d.packetOuts, d.deliveries)
	return hex.EncodeToString(h.Sum(nil))
}

// Micro-measurement sizes for the layers a burst cannot isolate.
const (
	dpDecodeFrames = 200_000
	dpAllocCycles  = 20
)

func (d *dataplane) layers(tr *tracer) map[string]metric {
	ops := tr.ops()
	per := func(name string, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(tr.stat(name).total.Nanoseconds()) / float64(n)
	}
	out := map[string]metric{
		"openflow.encode_ns_per_msg":      {per("openflow.encode", ops*dpBurst), "ns"},
		"ofconn.read_batch_ns_per_frame":  {per("ofconn.read_batch", d.framesRead), "ns"},
		"ofconn.send_ns_per_frame":        {per("ofconn.send", d.flowMods+d.packetOuts), "ns"},
		"ofconn.serve_batch_ns_per_frame": {per("ofconn.serve_batch", d.served), "ns"},
		"ofconn.frames_per_read":          {float64(d.framesRead) / float64(max(d.reads, 1)), "count"},
		"sdn.process_batch_ns_per_event":  {per("sdn.process_batch", d.punts), "ns"},
		"sdn.flowmod_ratio":               {float64(d.flowMods) / float64(max(d.punts, 1)), "ratio"},
		"sdn.flow_entries":                {float64(flowEntries(d.swNet)), "count"},
	}
	streams, err := encodeBursts(d.cycle)
	if err != nil {
		return out
	}
	out["openflow.decode_ns_per_msg"] = metric{decodeNsPerMsg(streams), "ns"}
	out["openflow.allocs_per_msg"] = metric{encodeAllocsPerMsg(d.cycle), "count"}
	out["ofconn.allocs_per_frame"] = metric{readBatchAllocsPerFrame(streams), "count"}
	out["sdn.allocs_per_event"] = metric{d.processBatchAllocsPerEvent(), "count"}
	return out
}

func flowEntries(net *sdn.Network) int {
	n := 0
	for _, id := range net.Switches() {
		sw, _ := net.Switch(id)
		n += sw.Table.Len()
	}
	return n
}

// encodeBursts frames each burst of the cycle as the switch side does.
func encodeBursts(cycle []punt) ([][]byte, error) {
	var out [][]byte
	for base := 0; base < len(cycle); base += dpBurst {
		var b []byte
		var err error
		for k := 0; k < dpBurst; k++ {
			if b, err = openflow.AppendEncode(b, &cycle[base+k].pi, uint32(base+k+1)); err != nil {
				return nil, err
			}
		}
		out = append(out, b)
	}
	return out, nil
}

// decodeNsPerMsg replays the captured bursts through a zero-copy
// Codec, the decoder FrameReader uses, frame by frame.
func decodeNsPerMsg(streams [][]byte) float64 {
	codec := openflow.NewZeroCopyCodec()
	decoded := 0
	start := time.Now()
	for decoded < dpDecodeFrames {
		for _, s := range streams {
			for len(s) >= 8 {
				n := int(s[2])<<8 | int(s[3])
				if _, _, _, err := codec.Decode(s[:n]); err != nil {
					return 0
				}
				s = s[n:]
				decoded++
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(decoded)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// encodeAllocsPerMsg counts heap allocations per AppendEncode into a
// reused buffer, the switch side's steady state.
func encodeAllocsPerMsg(cycle []punt) float64 {
	buf := make([]byte, 0, dpBurst*dpLargeFrame)
	encode := func() {
		for base := 0; base < len(cycle); base += dpBurst {
			buf = buf[:0]
			for k := 0; k < dpBurst; k++ {
				buf, _ = openflow.AppendEncode(buf, &cycle[base+k].pi, 1)
			}
		}
	}
	encode()
	before := mallocs()
	for i := 0; i < dpAllocCycles; i++ {
		encode()
	}
	return float64(mallocs()-before) / float64(dpAllocCycles*len(cycle))
}

// readBatchAllocsPerFrame counts heap allocations per frame returned by
// a warmed FrameReader.
func readBatchAllocsPerFrame(streams [][]byte) float64 {
	var rd bytes.Reader
	fr := ofconn.NewFrameReader(&rd)
	frames := make([]ofconn.Frame, 0, dpBurst)
	read := func() int {
		n := 0
		for _, s := range streams {
			rd.Reset(s)
			fr.Reset(&rd)
			for got := 0; got < dpBurst; {
				var err error
				if frames, err = fr.ReadBatch(frames[:0]); err != nil && !errors.Is(err, io.EOF) {
					return n
				}
				got += len(frames)
				n += len(frames)
			}
		}
		return n
	}
	read()
	before := mallocs()
	frameCount := 0
	for i := 0; i < dpAllocCycles; i++ {
		frameCount += read()
	}
	return float64(mallocs()-before) / float64(max(frameCount, 1))
}

// processBatchAllocsPerEvent runs whole cycles through the pipeline,
// counting allocations inside ProcessBatch only.
func (d *dataplane) processBatchAllocsPerEvent() float64 {
	d.measureAllocs = true
	defer func() { d.measureAllocs = false }()
	for i := 0; i < dpAllocCycles*d.burstsPerCycle(); i++ {
		if _, err := d.burst(nil); err != nil {
			return -1
		}
	}
	return float64(d.sdnAllocs) / float64(max(d.sdnAllocEvts, 1))
}

func (d *dataplane) close() {}
