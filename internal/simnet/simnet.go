// Package simnet binds the transport abstraction to the discrete-event
// Fast Ethernet simulator, substituting for the paper's physical testbed
// (nine Pentium III workstations on a 100 Mbps hub or switch).
//
// Rank programs run as virtual-time processes; every Send charges the
// calibrated host overheads, hands UDP datagrams to the simulated stack,
// and latency is read from the simulated clock. Profile's field
// comments say what each calibrated constant models; EXPERIMENTS.md
// records the results measured under them.
//
// The package also models the central premise of the paper: IP multicast
// is receiver-directed and unreliable. In StrictPosted mode a multicast
// fragment that arrives while the destination rank has no receive posted
// is silently lost (the VIA-style discipline the paper's future work
// discusses); otherwise a bounded receive ring buffers bursts and
// overflows are lost. The scout synchronization algorithms in package
// core exist precisely to make such losses impossible.
package simnet

import (
	"fmt"
	"strconv"

	"repro/internal/ethernet"
	"repro/internal/ipnet"
	"repro/internal/metrics"
	"repro/internal/reliab"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Topology selects the physical network of the paper's two testbeds.
type Topology int

const (
	// Hub is the shared-medium repeater (3Com SuperStack II): one
	// CSMA/CD collision domain.
	Hub Topology = iota
	// Switch is the store-and-forward switch (HP ProCurve) with IGMP
	// snooping.
	Switch
	// SwitchShared is the switch in shared-uplink port mode: stations
	// are grouped into half-duplex segments of Profile.UplinkFanout that
	// each share one switch port, modeling the stacked/cascaded fabrics
	// needed to host more stations than the testbed's 8-port switch.
	// A port's bandwidth becomes an uplink shared by its group — one
	// multicast egress transmission serves every station on the segment,
	// while unicast fan-in converges on the bounded, flow-controlled
	// port queues. This is the topology the figure 14/15 N-sweeps run
	// on for N beyond the physical port count.
	SwitchShared
)

func (t Topology) String() string {
	switch t {
	case Hub:
		return "hub"
	case SwitchShared:
		return "switch-shared"
	default:
		return "switch"
	}
}

// Profile holds the calibrated timing model.
type Profile struct {
	// Ethernet carries the data-link constants.
	Ethernet ethernet.Params
	// OSend is the per-message host overhead on the sending side
	// (syscall, buffer handling).
	OSend sim.Duration
	// ORecv is the per-message host overhead on the receiving side.
	ORecv sim.Duration
	// OFrag is the additional per-fragment host cost, charged on both
	// sides of multi-frame messages.
	OFrag sim.Duration
	// OByte is the per-payload-byte host cost (buffer copies through the
	// socket layer — roughly 100 MB/s effective on the testbed's Pentium
	// III hosts), charged on both sides of a message. This is what makes
	// an N-1-copy MPICH tree pay for the payload at every hop while a
	// multicast pays once at the root.
	OByte sim.Duration
	// TCPPenalty is the extra per-message cost of the reliable
	// connection-oriented protocol the MPICH baseline uses for
	// point-to-point traffic (the paper's MPICH ran over TCP while the
	// multicast implementation ran over UDP).
	TCPPenalty sim.Duration
	// RecvRing bounds the number of fully reassembled messages an
	// endpoint buffers while its rank is busy; arrivals beyond it are
	// dropped (socket-buffer overflow).
	RecvRing int
	// StrictPosted, when true, drops any multicast fragment arriving
	// while the destination rank is not inside a Recv call — the paper's
	// "if a receiver is not ready … the message is lost" semantics in
	// their sharpest form. The posted scope covers the whole call,
	// including the host processing charged after a message is popped
	// (a VIA-style descriptor stays posted while the CPU copies an
	// earlier message out); ranks that are sending or computing between
	// calls are unposted.
	StrictPosted bool
	// LossRate injects independent random loss of multicast fragments
	// (0 disables), which only the collectives' own ACK/NACK recovery
	// repairs. It drops no point-to-point frame: P2PLossRate does.
	LossRate float64
	// DropFrag, when non-nil, is consulted for every multicast fragment
	// arriving at an endpoint (before delivery and before the strict
	// posted-receive check); returning true drops the fragment and
	// counts it in Stats.InjectedLosses. It gives tests deterministic,
	// surgical loss — "drop exactly fragment 37 of the next multicast at
	// rank 3" — where LossRate only offers seeded randomness.
	DropFrag func(dst int, f transport.Fragment) bool
	// P2PLossRate injects independent random loss of point-to-point
	// fragments: the UDP bypass (scouts, reduce halves, gather chunks,
	// NACKs), the modeled-TCP baseline traffic (Reliable=true), and the
	// stream layer's own acknowledgments and probes alike. Every
	// point-to-point path rides the reliable stream (package reliab), so
	// this knob exercises exactly the retransmission machinery that
	// makes them all survivable — loss sweeps cover the MPICH baselines
	// too, with no by-fiat exemptions left.
	P2PLossRate float64
	// DropP2P is the deterministic, surgical analogue of P2PLossRate:
	// consulted for every bypass point-to-point fragment arriving at an
	// endpoint; returning true drops it (counted in
	// Stats.InjectedP2PLosses).
	DropP2P func(dst int, f transport.Fragment) bool
	// UplinkFanout is the number of stations sharing one switch port
	// (through a shared half-duplex segment) under the SwitchShared
	// topology; 0 means 4. Ignored by Hub and Switch.
	UplinkFanout int
	// Seed drives all randomness (CSMA/CD backoff, loss injection).
	Seed uint64
	// Trace, when non-nil, is the flight recorder every endpoint exposes
	// through trace.Carrier and the fabric reports occupancy gauges to.
	// Recording reads the simulated clock but never advances it and
	// schedules no events, so an instrumented run produces byte-identical
	// simulated timestamps to an untraced one (a property pinned by
	// TestTraceDoesNotPerturbSimTime in package bench).
	Trace *trace.Recorder
	// Metrics, when non-nil, is the live telemetry registry every
	// endpoint exposes through metrics.Carrier: continuous stream RTT /
	// window / retransmit observables, per-NIC delivered rates, and
	// switch queue gauges, updated as events run. Like Trace, sampling
	// reads the simulated clock but never advances it and schedules no
	// events — an instrumented run produces byte-identical simulated
	// timestamps (pinned by TestMetricsDoNotPerturbSimTime in package
	// bench).
	Metrics *metrics.Registry
}

// DefaultProfile returns the era-calibrated constants (each explained on
// its Profile field).
func DefaultProfile() Profile {
	return Profile{
		Ethernet:   ethernet.DefaultParams(),
		OSend:      34 * sim.Microsecond,
		ORecv:      34 * sim.Microsecond,
		OFrag:      10 * sim.Microsecond,
		OByte:      12 * sim.Nanosecond,
		TCPPenalty: 8 * sim.Microsecond,
		RecvRing:   256,
		Seed:       1,
	}
}

// MaxFragPayload is the message payload carried per simulated UDP
// datagram after the transport header.
const MaxFragPayload = ipnet.MaxUDPPayload - transport.HeaderLen

// pausedWindow is the shrunk per-peer stream window an endpoint applies
// while its NIC is flow-control PAUSEd (802.3x): admissions beyond it
// block until the pause lifts or acknowledgments arrive, so the switch's
// backpressure propagates into the sending host and the NIC's transmit
// queue stays bounded instead of absorbing the whole reliab.Window per
// peer in host memory. Real sockets have no pause signal, so only the
// simulator applies one.
const pausedWindow = 2

// Stats aggregates loss counters across the network. Stream counters
// are atomics (reliab.StatCounters) so readers outside the event loop —
// the mpirun stats print, the HTTP metrics sampler — take torn-free
// snapshots of a live run.
type Stats struct {
	McastDropsNotPosted int64 // strict-mode losses (receiver not ready)
	RingOverflows       int64 // receive-ring overflow losses
	InjectedLosses      int64 // random multicast losses (LossRate/DropFrag)
	InjectedP2PLosses   int64 // injected p2p losses (P2PLossRate/DropP2P)
	Stream              reliab.StatCounters
}

// Network is one simulated cluster: an engine, a hub or switch, and one
// endpoint per rank.
type Network struct {
	eng   *sim.Engine
	prof  Profile
	topo  Topology
	eps   []*Endpoint
	rng   *sim.Rand
	hub   *ethernet.Hub
	sw    *ethernet.Switch
	Wire  trace.Counters // frames put on the wire, by class
	Stats Stats
	// paused is the admission window while a NIC is paused: pausedWindow,
	// unless a test's negative control lifts it (export_test.go).
	paused int
}

// New builds a cluster of n ranks on the given topology.
func New(n int, topo Topology, prof Profile) *Network {
	if n <= 0 {
		panic("simnet: network size must be positive")
	}
	if prof.RecvRing <= 0 {
		prof.RecvRing = 1
	}
	eng := sim.New()
	nw := &Network{eng: eng, prof: prof, topo: topo, rng: sim.NewRand(prof.Seed), paused: pausedWindow}
	// The NIC and loss RNG forks interleave per rank (NIC 0, loss 0,
	// NIC 1, …) so seeded runs reproduce the pre-shared-uplink timelines
	// exactly; the endpoints are built in the same loop for the same
	// reason, with only the topology attachment batched afterwards.
	nics := make([]*ethernet.NIC, n)
	lossRngs := make([]*sim.Rand, n)
	for i := 0; i < n; i++ {
		nics[i] = ethernet.NewNIC(eng, ethernet.UnicastMAC(i), prof.Ethernet, nw.rng.Fork())
		lossRngs[i] = nw.rng.Fork()
	}
	switch topo {
	case Hub:
		nw.hub = ethernet.NewHub(eng, prof.Ethernet)
		for _, nic := range nics {
			nw.hub.Attach(nic)
		}
	case Switch:
		nw.sw = ethernet.NewSwitch(eng, prof.Ethernet)
		for _, nic := range nics {
			nw.sw.Attach(nic)
		}
	case SwitchShared:
		nw.sw = ethernet.NewSwitch(eng, prof.Ethernet)
		// Normalize the fanout in the stored profile so the wiring here
		// and the discovered TopoMap read the same value by construction.
		if nw.prof.UplinkFanout <= 0 {
			nw.prof.UplinkFanout = 4
		}
		fanout := nw.prof.UplinkFanout
		for lo := 0; lo < n; lo += fanout {
			hi := lo + fanout
			if hi > n {
				hi = n
			}
			nw.sw.AttachSegment(nics[lo:hi])
		}
	default:
		panic(fmt.Sprintf("simnet: unknown topology %d", topo))
	}
	if rec, reg := prof.Trace, prof.Metrics; (rec != nil || reg != nil) && nw.sw != nil {
		// Fabric occupancy gauges land on a synthetic track so they never
		// mix with rank-program events. Port names are precomputed: the tap
		// fires on every egress enqueue/dequeue, feeding the flight
		// recorder and the live metrics gauges from the same observation
		// (one tap, zero scheduled events either way).
		ports := len(nw.sw.PortStats())
		depthName := make([]string, ports)
		depthGauge := make([]*metrics.Gauge, ports)
		for p := range depthName {
			depthName[p] = fmt.Sprintf("switch.port%d.depth", p)
			depthGauge[p] = reg.Gauge(metrics.Labeled("mcast_switch_queue_depth", "port", strconv.Itoa(p)))
		}
		pausedGauge := reg.Gauge("mcast_switch_paused_stations")
		nw.sw.SetTap(ethernet.SwitchTap{
			QueueDepth: func(port, depth int) {
				rec.Gauge(trace.FabricRank, int64(eng.Now()), depthName[port], int64(depth))
				depthGauge[port].Set(float64(depth))
			},
			Paused: func(stations int) {
				rec.Gauge(trace.FabricRank, int64(eng.Now()), "switch.paused", int64(stations))
				pausedGauge.Set(float64(stations))
			},
		})
	}
	for i := 0; i < n; i++ {
		node := ipnet.NewNode(eng, nics[i], ipnet.RankAddr(i))
		ep := &Endpoint{
			nw:      nw,
			rank:    i,
			nic:     nics[i],
			node:    node,
			inbox:   sim.NewQueue[arrived](eng),
			lossRng: lossRngs[i],
		}
		// Per-NIC telemetry handles, registered eagerly so every family
		// exists from the first scrape (nil registry → nil no-op handles).
		rs := strconv.Itoa(i)
		ep.mDelivBytes = prof.Metrics.Meter(metrics.Labeled("mcast_nic_delivered_bytes", "rank", rs), metrics.DefaultMeterTau)
		ep.mDelivFrames = prof.Metrics.Meter(metrics.Labeled("mcast_nic_delivered_frames", "rank", rs), metrics.DefaultMeterTau)
		ep.streams = reliab.NewDriver(reliab.Host{
			Rank: i, Size: n, FragPayload: MaxFragPayload,
			Stats: &nw.Stats.Stream, Trace: prof.Trace, Metrics: prof.Metrics,
		})
		ep.mPauseStalls = prof.Metrics.Counter(metrics.Labeled("mcast_nic_pause_stalls", "rank", rs))
		node.SetHandler(ep.handleDatagram)
		// Propagate 802.3x backpressure into the stream layer: a sender
		// blocked on the shrunk paused-NIC window re-checks its
		// admission condition when the pause lifts or the backlog the
		// pause created drains.
		nics[i].SetPauseListener(func(paused bool) {
			if !paused && ep.proc != nil {
				ep.proc.Nudge()
			}
		})
		nics[i].SetDrainListener(func(depth int) {
			if ep.congested && depth <= ep.nw.paused && ep.proc != nil {
				ep.proc.Nudge()
			}
		})
		nw.eps = append(nw.eps, ep)
	}
	return nw
}

// Engine exposes the simulation engine (for tests and custom scenarios).
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Events reports the number of simulation events processed so far — the
// denominator of the wall-clock events/sec trajectory metric.
func (nw *Network) Events() uint64 { return nw.eng.Processed() }

// Topology returns the network's topology.
func (nw *Network) Topology() Topology { return nw.topo }

// TopoMap describes the cluster's rank placement for the topology
// subsystem, discovered from the actual wiring New built: under
// SwitchShared, Profile.UplinkFanout stations per shared segment
// (exactly the AttachSegment grouping); a hub is one shared segment; a
// switch gives every station its own. The degenerate maps make the
// topology-aware collectives fall back to the flat algorithms, which is
// the honest answer on fabrics without a shared uplink to economize.
func (nw *Network) TopoMap() *topo.Map {
	n := len(nw.eps)
	switch nw.topo {
	case Hub:
		return topo.Uniform(n, n)
	case SwitchShared:
		// UplinkFanout was normalized by New before the segments were
		// attached, so this map matches the physical wiring exactly.
		return topo.Uniform(n, nw.prof.UplinkFanout)
	default:
		return topo.Uniform(n, 1)
	}
}

// Endpoint returns rank i's endpoint.
func (nw *Network) Endpoint(i int) *Endpoint { return nw.eps[i] }

// Size returns the number of ranks.
func (nw *Network) Size() int { return len(nw.eps) }

// HubStats returns hub counters (nil stats if the topology is a switch).
func (nw *Network) HubStats() ethernet.HubStats {
	if nw.hub == nil {
		return ethernet.HubStats{}
	}
	return nw.hub.Stats
}

// SwitchStats returns switch counters (zero if the topology is a hub).
func (nw *Network) SwitchStats() ethernet.SwitchStats {
	if nw.sw == nil {
		return ethernet.SwitchStats{}
	}
	return nw.sw.Stats
}

// SilentDrops counts the drops nobody injected that a flow-controlled
// switch can still make: a message the receiving host had no ring room
// for (Stats.RingOverflows) and a multicast no port had joined
// (SwitchStats.MulticastDrops). A full egress queue PAUSEs instead, and
// a NIC's attempt-limit drop cannot happen on a switch port: ports are
// full duplex, and shared segments ideally arbitrated.
func (nw *Network) SilentDrops() int64 {
	return nw.Stats.RingOverflows + nw.SwitchStats().MulticastDrops
}

// SwitchPortStats returns per-port egress occupancy counters (nil on a
// hub): the queue-depth high-watermark instrumentation the shared-uplink
// experiments read.
func (nw *Network) SwitchPortStats() []ethernet.SwitchPortStats {
	if nw.sw == nil {
		return nil
	}
	return nw.sw.PortStats()
}

// KillRank schedules rank r's death at event time `at`: from that
// instant the endpoint drops every arriving frame (it never answers a
// probe again), and every device call from the rank's own program
// returns transport.ErrKilled. Frames the rank already put on the wire
// still drain — a real crash does not recall packets in flight. The
// kill is deterministic: a pure function of event time, like DropFrag.
func (nw *Network) KillRank(r int, at sim.Duration) {
	ep := nw.eps[r]
	nw.eng.At(at, func() {
		if ep.killed {
			return
		}
		ep.killed = true
		ep.streams.Stop()
		ep.inbox.Close()
		ep.nudge()
	})
}

// Straggle schedules an injected compute stall for rank r: at event
// time `at` the rank accrues `delay` of extra virtual compute, consumed
// at its next receive or send. The rank stays alive the whole time —
// stream control is handled at interrupt level, so its probes are still
// answered — which is exactly the straggler-versus-failure distinction
// the failure detector must honor.
func (nw *Network) Straggle(r int, at, delay sim.Duration) {
	ep := nw.eps[r]
	nw.eng.At(at, func() { ep.straggle += delay })
}

// PartitionUplink cuts segment seg's uplink through the switch during
// the event-time window [from, to): no frame crosses the fabric in
// either direction, while segment-local traffic (stations on the shared
// segment hearing each other directly) is unaffected. Requires a
// switched topology; under SwitchShared the segment index is the port
// index by construction.
func (nw *Network) PartitionUplink(seg int, from, to sim.Duration) {
	if nw.sw == nil {
		panic("simnet: PartitionUplink requires a switched topology")
	}
	nw.sw.PartitionPort(seg, sim.Time(from), sim.Time(to))
}

// RankError reports which rank program failed.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }
func (e *RankError) Unwrap() error { return e.Err }

// Run executes one rank program per endpoint inside virtual-time
// processes and drives the simulation to completion.
func (nw *Network) Run(fns []func(ep *Endpoint) error) error {
	if len(fns) != len(nw.eps) {
		return fmt.Errorf("simnet: %d rank programs for %d endpoints", len(fns), len(nw.eps))
	}
	for i, fn := range fns {
		ep, fn := nw.eps[i], fn
		rank := i
		nw.eng.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) error {
			ep.proc = p
			if err := fn(ep); err != nil {
				return &RankError{Rank: rank, Err: err}
			}
			return nil
		})
	}
	return nw.eng.Run()
}

// arrived pairs a reassembled message with its fragment count so the
// receive path can charge per-fragment host overhead.
type arrived struct {
	msg   transport.Message
	frags int
}

// DeliveredStats counts what one endpoint actually handed up to its rank
// — the receiver-side cost slice filtering is about: fragments addressed
// to a foreign slice group never reach the endpoint (the NIC's multicast
// filter, or the switch's IGMP snooping, drops them), so a sliced
// collective's per-receiver delivered bytes match the unicast byte count
// even though the wire carries multicast.
type DeliveredStats struct {
	Messages  int64 // reassembled messages queued for the rank
	Frames    int64 // fragments of those messages
	Bytes     int64 // payload bytes of those messages
	DataBytes int64 // payload bytes of ClassData messages only
}

// Endpoint is one rank's attachment to the simulated network. It
// implements transport.Endpoint and transport.Wire. All methods
// must be called from the rank program started by Network.Run.
type Endpoint struct {
	nw        *Network
	rank      int
	proc      *sim.Proc
	nic       *ethernet.NIC
	node      *ipnet.Node
	inbox     *sim.Queue[arrived]
	encBuf    []byte // scratch for wire encoding; dead once SendUDP copies
	msgID     uint64
	lastMcast uint64
	posted    int
	lossRng   *sim.Rand
	closed    bool
	delivered DeliveredStats

	// Live telemetry handles (nil when Profile.Metrics is nil; every
	// method on a nil handle is an allocation-free no-op).
	mDelivBytes  *metrics.Meter
	mDelivFrames *metrics.Meter
	mPauseStalls *metrics.Counter

	// Fault-injection state (Network.KillRank / Straggle, FailPeer).
	killed   bool         // rank is dead: drops all arrivals, errors all calls
	straggle sim.Duration // injected compute delay, consumed at the next call
	pinging  int          // Ping calls blocked on an ack

	// streams runs the reliable point-to-point streams (package reliab)
	// and reassembles every arriving message; this endpoint carries out
	// what it asks for in event context.
	streams *reliab.Driver
	// congested records that the NIC was flow-control PAUSEd and its
	// transmit backlog has not yet drained back below the paused window:
	// stream admissions stay throttled for the whole episode, not just
	// the paused instants (the pause oscillates one frame at a time as
	// the egress queue drains).
	congested bool
}

var (
	_ transport.Endpoint = (*Endpoint)(nil)
	_ transport.Wire     = (*Endpoint)(nil)
	_ topo.Provider      = (*Endpoint)(nil)
	_ trace.Carrier      = (*Endpoint)(nil)
	_ metrics.Carrier    = (*Endpoint)(nil)
)

// TraceRecorder implements trace.Carrier: the network-wide flight
// recorder from Profile.Trace, nil when tracing is disabled.
func (ep *Endpoint) TraceRecorder() *trace.Recorder { return ep.nw.prof.Trace }

// MetricsRegistry implements metrics.Carrier: the network-wide live
// telemetry registry from Profile.Metrics, nil when disabled.
func (ep *Endpoint) MetricsRegistry() *metrics.Registry { return ep.nw.prof.Metrics }

// Rank implements transport.Endpoint.
func (ep *Endpoint) Rank() int { return ep.rank }

// Size implements transport.Endpoint.
func (ep *Endpoint) Size() int { return len(ep.nw.eps) }

// Now implements transport.Endpoint with the simulated clock.
func (ep *Endpoint) Now() int64 { return int64(ep.nw.eng.Now()) }

// Proc exposes the simulated process (to model computation with Sleep).
func (ep *Endpoint) Proc() *sim.Proc { return ep.proc }

// Node exposes the network-layer stack (for statistics in tests).
func (ep *Endpoint) Node() *ipnet.Node { return ep.node }

// TopoMap implements topo.Provider from the network's wiring.
func (ep *Endpoint) TopoMap() *topo.Map { return ep.nw.TopoMap() }

// NIC exposes the station's data-link interface (for queue-depth and
// pause statistics in tests).
func (ep *Endpoint) NIC() *ethernet.NIC { return ep.nic }

func classToFrameKind(c transport.Class) ethernet.FrameKind {
	switch c {
	case transport.ClassData:
		return ethernet.KindData
	case transport.ClassScout:
		return ethernet.KindScout
	case transport.ClassAck:
		return ethernet.KindAck
	case transport.ClassNack:
		return ethernet.KindNack
	case transport.ClassStream:
		return ethernet.KindAck
	default:
		return ethernet.KindControl
	}
}

// Send implements transport.Endpoint.
func (ep *Endpoint) Send(dst int, m transport.Message) error {
	if err := ep.downErr(); err != nil {
		return err
	}
	if dst < 0 || dst >= len(ep.nw.eps) {
		return fmt.Errorf("simnet: send to rank %d outside world of %d", dst, len(ep.nw.eps))
	}
	if ep.streams.PeerFailed(dst) {
		// The peer was declared dead: discard silently, exactly like a
		// frame toward a crashed host. The caller already knows from the
		// failure detector; erroring here would poison survivor reruns.
		return nil
	}
	m.Kind = transport.P2P
	return ep.transmit(ipnet.RankAddr(dst), m)
}

// FailPeer implements transport.Wire: traffic to dst is silently
// discarded and its stream stops probing, so background probes to a dead
// rank cannot poison the whole endpoint after a Shrink.
func (ep *Endpoint) FailPeer(dst int) { ep.streams.FailPeer(dst) }

// Ping implements transport.Wire: one stream-layer probe to dst,
// answered at interrupt level by any live peer (even one deep in a
// compute stall), never by a killed one.
func (ep *Endpoint) Ping(dst int, timeout int64) bool {
	p := ep.proc
	if p == nil {
		panic("simnet: endpoint used outside Network.Run")
	}
	if ep.killed || ep.closed || dst < 0 || dst >= len(ep.nw.eps) || dst == ep.rank {
		return false
	}
	probe, before := ep.streams.Ping(dst)
	ep.sendCtl(dst, probe)
	ep.pinging++
	err := p.WaitFor(func() bool {
		return ep.streams.AcksSeen(dst) > before || ep.killed || ep.closed
	}, ep.nw.eng.Now()+sim.Time(timeout))
	ep.pinging--
	return err == nil && !ep.killed && !ep.closed && ep.streams.AcksSeen(dst) > before
}

// SendReliable implements transport.Wire: m rides the
// per-peer sequence-numbered stream to dst with a sliding send window —
// the call blocks (in virtual time) while the window is full — and the
// stream layer retransmits anything the receiver proves lost. The
// initial transmission charges the ordinary host send costs; protocol
// frames and retransmissions are driven from event context (the
// NIC/kernel reliability layer) and cost the host nothing, exactly like
// the modeled TCP acknowledgments.
func (ep *Endpoint) SendReliable(dst int, m transport.Message) error {
	if err := ep.downErr(); err != nil {
		return err
	}
	if dst < 0 || dst >= len(ep.nw.eps) {
		return fmt.Errorf("simnet: send to rank %d outside world of %d", dst, len(ep.nw.eps))
	}
	if ep.streams.PeerFailed(dst) {
		return nil
	}
	p := ep.proc
	if p == nil {
		panic("simnet: endpoint used outside Network.Run")
	}
	// The admission window shrinks to pausedWindow for the whole of a
	// flow-control episode: from the moment the NIC is PAUSEd until its
	// transmit backlog has drained back below the paused window. The
	// switch's backpressure thereby propagates into the host — a paused
	// station's queue growth is bounded by the paused window instead of
	// absorbing the full window per peer — and the pause/drain listeners
	// nudge the blocked process as the episode resolves.
	windowFull := func() bool {
		if ep.streams.Full(dst) {
			return true
		}
		pw := ep.nw.paused
		if ep.nic.Paused() {
			ep.congested = true
		} else if ep.congested && ep.nic.QueuedFrames() <= pw {
			ep.congested = false
		}
		return ep.congested && ep.streams.InFlight(dst) >= pw
	}
	if windowFull() {
		ep.step(dst, ep.streams.Stall(ep.Now(), dst))
		if ep.congested && !ep.streams.Full(dst) {
			ep.nw.Stats.Stream.PauseStalls.Add(1)
			ep.mPauseStalls.Inc()
		}
		_ = p.WaitFor(func() bool {
			return !windowFull() || ep.downErr() != nil
		}, 0)
		if err := ep.downErr(); err != nil {
			return err
		}
	}
	ep.msgID++
	frags, seq := ep.streams.Begin(dst, m, ep.msgID)
	if err := ep.transmitFrags(ipnet.RankAddr(dst), m, frags); err != nil {
		return err
	}
	// Only now are the fragments at the device: transmitFrags slept the
	// host send cost.
	ep.step(dst, ep.streams.Sent(ep.Now(), dst, seq))
	return nil
}

// step carries out what the stream driver asked for, in the order
// reliab.Step documents. It runs in event context (or, from
// SendReliable, in the rank's proc): control frames and retransmissions
// cost the host nothing — the reliability layer lives below the socket
// boundary, like the kernel's TCP. A failed stream closes the inbox so a
// blocked receive observes the error instead of deadlocking silently.
func (ep *Endpoint) step(peer int, st reliab.Step) {
	if st.Err != nil {
		ep.inbox.Close()
		ep.nudge()
	}
	if st.Acked && ep.pinging > 0 {
		ep.nudge()
	}
	ep.sendCtl(peer, st.Ctl)
	for _, r := range st.Resend {
		ep.resendFrags(peer, r.Frags)
	}
	if st.Arm > 0 {
		ep.nw.eng.At(st.Arm, func() { ep.step(peer, ep.streams.OnTimer(ep.Now(), peer)) })
	}
	if st.Freed {
		ep.nudge()
	}
}

// nudge makes the rank's proc re-check whatever condition it is blocked on.
func (ep *Endpoint) nudge() {
	if ep.proc != nil {
		ep.proc.Nudge()
	}
}

// downErr reports why the endpoint refuses work — the rank was killed, a
// stream failed, the endpoint was closed — or nil while it is up.
func (ep *Endpoint) downErr() error {
	switch {
	case ep.killed:
		return transport.ErrKilled
	case ep.streams.Err() != nil:
		return ep.streams.Err()
	case ep.closed:
		return transport.ErrClosed
	}
	return nil
}

// sendCtl emits one stream control frame (probe or ack) to dst; a nil
// body — the driver had nothing to say — emits nothing. Control frames
// are real, droppable wire frames counted in the ClassAck column.
func (ep *Endpoint) sendCtl(dst int, body []byte) {
	if body == nil {
		return
	}
	ep.msgID++
	ep.nw.Wire.CountSend(transport.ClassStream, 1, len(body))
	_ = ep.emit(ipnet.RankAddr(dst), reliab.CtlFrame(ep.rank, ep.msgID, body))
}

// emit hands one fragment to the stack, serialized into the endpoint's
// scratch buffer: SendUDP copies the bytes into the frame it builds, so
// the hot send paths never allocate per fragment.
func (ep *Endpoint) emit(dst ipnet.Addr, f transport.Fragment) error {
	ep.encBuf = transport.AppendFragment(ep.encBuf[:0], f)
	return ep.node.SendUDP(ipnet.Datagram{
		Dst:     dst,
		DstPort: 5000,
		Kind:    classToFrameKind(f.Msg.Class),
		Payload: ep.encBuf,
	})
}

// resendFrags puts recorded stream fragments (one message's, never
// empty) back on the wire to dst.
func (ep *Endpoint) resendFrags(dst int, frags []transport.Fragment) {
	bytes := 0
	for _, f := range frags {
		bytes += len(f.Msg.Payload)
	}
	ep.nw.Wire.CountSend(frags[0].Msg.Class, len(frags), bytes)
	for _, f := range frags {
		_ = ep.emit(ipnet.RankAddr(dst), f)
	}
}

// Join implements transport.Endpoint.
func (ep *Endpoint) Join(group uint32) error {
	if err := ep.downErr(); err != nil {
		return err
	}
	return ep.node.Join(ipnet.GroupAddr(group))
}

// Leave implements transport.Endpoint.
func (ep *Endpoint) Leave(group uint32) error {
	if err := ep.downErr(); err != nil {
		return err
	}
	return ep.node.Leave(ipnet.GroupAddr(group))
}

// Multicast implements transport.Endpoint: one transmission reaches
// every joined member, exactly as one IP multicast datagram does.
func (ep *Endpoint) Multicast(group uint32, m transport.Message) error {
	if err := ep.downErr(); err != nil {
		return err
	}
	m.Kind = transport.Mcast
	return ep.transmit(ipnet.GroupAddr(group), m)
}

func (ep *Endpoint) transmit(dst ipnet.Addr, m transport.Message) error {
	m.Src = ep.rank
	ep.msgID++
	if m.Kind == transport.Mcast {
		ep.lastMcast = ep.msgID
	}
	return ep.transmitFrags(dst, m, transport.Split(m, ep.msgID, MaxFragPayload))
}

// transmitFrags charges the host-side send cost for frags of m and hands
// them to the stack; the repair path calls it with a fragment subset.
func (ep *Endpoint) transmitFrags(dst ipnet.Addr, m transport.Message, frags []transport.Fragment) error {
	p := ep.proc
	if p == nil {
		panic("simnet: endpoint used outside Network.Run")
	}
	ep.consumeStraggle(p)
	bytes := 0
	for _, f := range frags {
		bytes += len(f.Msg.Payload)
	}
	prof := &ep.nw.prof
	// Host-side cost: per-message overhead, per-fragment cost, and the
	// reliable-protocol penalty for TCP-like traffic — charged per
	// acknowledgment the transfer will provoke (TCP's delayed ack: one
	// per two segments), so a multi-segment reliable message pays the
	// kernel's ack processing as well as its own.
	cost := prof.OSend + sim.Duration(len(frags))*prof.OFrag + sim.Duration(bytes)*prof.OByte
	if m.Reliable {
		cost += prof.TCPPenalty * sim.Duration((len(frags)+1)/2)
	}
	p.Sleep(cost)
	ep.nw.Wire.CountSend(m.Class, len(frags), bytes)
	for _, f := range frags {
		if err := ep.emit(dst, f); err != nil {
			return err
		}
	}
	return nil
}

// LastMulticastID implements transport.Wire.
func (ep *Endpoint) LastMulticastID() uint64 { return ep.lastMcast }

// RepairMulticast implements transport.Wire: it retransmits
// the named fragments of m (nil = all) to group under the original
// message id, so they complete receivers' partial reassembly.
func (ep *Endpoint) RepairMulticast(group uint32, m transport.Message, msgID uint64, frags []int) error {
	if err := ep.downErr(); err != nil {
		return err
	}
	m.Kind = transport.Mcast
	m.Src = ep.rank
	send, err := transport.RepairFragments(m, msgID, MaxFragPayload, frags)
	if err != nil {
		return err
	}
	return ep.transmitFrags(ipnet.GroupAddr(group), m, send)
}

// PendingFrom implements transport.Wire from the stream
// driver's reassembly state.
func (ep *Endpoint) PendingFrom(src int) (msgID uint64, missing []int, seen transport.Arrivals, ok bool) {
	return ep.streams.PendingFrom(src)
}

// LastLoss implements transport.Wire from the stream driver.
func (ep *Endpoint) LastLoss() int64 { return ep.streams.LastLoss() }

// MaxFragPayload implements transport.Wire.
func (ep *Endpoint) MaxFragPayload() int { return MaxFragPayload }

// consumeStraggle sleeps off any injected compute stall accrued by
// Network.Straggle. Called with the rank's descriptor posted (or on the
// send path), so the stall models a busy CPU, not an absent receiver.
func (ep *Endpoint) consumeStraggle(p *sim.Proc) {
	for ep.straggle > 0 {
		d := ep.straggle
		ep.straggle = 0
		p.Sleep(d)
	}
}

// PostRecvs implements transport.Wire: it adds n standing receive
// descriptors to the endpoint's posted count, so strict-posted mode
// keeps accepting multicast frames between the Recv calls of a burst of
// concurrent collective rounds.
func (ep *Endpoint) PostRecvs(n int) { ep.posted += n }

// UnpostRecvs retires n standing descriptors posted by PostRecvs.
func (ep *Endpoint) UnpostRecvs(n int) { ep.posted -= n }

// Delivered returns the endpoint's delivery counters.
func (ep *Endpoint) Delivered() DeliveredStats { return ep.delivered }

// handleDatagram runs in event context when a UDP datagram reaches the
// rank's stack. Loss injection and the strict-posted check are the
// endpoint's; every surviving data fragment goes to one stream driver
// call, which suppresses duplicates, reassembles, delivers and says which
// acks to send.
func (ep *Endpoint) handleDatagram(d ipnet.Datagram) {
	if ep.closed || ep.killed {
		return
	}
	prof := &ep.nw.prof
	f, err := transport.DecodeFragment(d.Payload)
	if err != nil {
		return
	}
	if prof.DropFrag != nil && f.Msg.Kind == transport.Mcast && prof.DropFrag(ep.rank, f) {
		ep.nw.Stats.InjectedLosses++
		return
	}
	if prof.LossRate > 0 && f.Msg.Kind == transport.Mcast {
		if float64(ep.lossRng.Uint64()%1_000_000)/1_000_000 < prof.LossRate {
			ep.nw.Stats.InjectedLosses++
			return
		}
	}
	if prof.StrictPosted && f.Msg.Kind == transport.Mcast && ep.posted == 0 {
		// The paper's core failure mode: a multicast frame arriving
		// while the receiver has not posted its receive is lost.
		ep.nw.Stats.McastDropsNotPosted++
		return
	}
	if f.Msg.Kind == transport.P2P {
		// Point-to-point loss: unlike the paper's model, ANY frame kind
		// may vanish — data, scout, modeled-TCP baseline traffic, stream
		// ack, probe, NACK. The stream layer (and only it) makes this
		// survivable; no traffic class is reliable by fiat.
		if prof.DropP2P != nil && prof.DropP2P(ep.rank, f) {
			ep.nw.Stats.InjectedP2PLosses++
			return
		}
		if prof.P2PLossRate > 0 {
			if float64(ep.lossRng.Uint64()%1_000_000)/1_000_000 < prof.P2PLossRate {
				ep.nw.Stats.InjectedP2PLosses++
				return
			}
		}
	}
	if f.Repair {
		// Someone in earshot put a frame on the wire twice. Only frames
		// that survived the injection above count: the endpoint learns of
		// loss from what it hears, never from the injector.
		ep.streams.LossSeen(ep.Now())
	}
	src := f.Msg.Src
	if f.Ctl {
		// Stream control (ack/probe): consumed below the receive path.
		ep.step(src, ep.streams.OnCtl(ep.Now(), src, f.Msg.Payload))
		return
	}
	// The ring bounds reassembled messages waiting for the rank. A streamed
	// message that overflows it is not a loss: the driver neither delivers
	// nor acknowledges it, and the sender's probe drives a full resend once
	// the ring has drained.
	room := ep.inbox.Len() < prof.RecvRing
	a := ep.streams.Receive(ep.Now(), f, room)
	for i := 0; i < a.Acks; i++ {
		ep.sendCtl(src, a.Ack) // the sender charges TCPPenalty per ack it provokes
	}
	switch {
	case a.Done && !room:
		ep.nw.Stats.RingOverflows++
	case a.Done:
		m := a.Msg
		ep.delivered.Messages++
		ep.delivered.Frames += int64(a.Frags)
		ep.delivered.Bytes += int64(len(m.Payload))
		if m.Class == transport.ClassData {
			ep.delivered.DataBytes += int64(len(m.Payload))
		}
		ep.mDelivBytes.Mark(int64(ep.nw.eng.Now()), int64(len(m.Payload)))
		ep.mDelivFrames.Mark(int64(ep.nw.eng.Now()), int64(a.Frags))
		if rec := prof.Trace; rec != nil {
			rec.Gauge(ep.rank, int64(ep.nw.eng.Now()), "delivered.bytes", ep.delivered.Bytes)
		}
		ep.inbox.Push(arrived{msg: m, frags: a.Frags})
	}
	ep.sendCtl(src, a.Throttled)
}

// Recv implements transport.Endpoint. Being inside a Recv call is what
// "the receive is posted" means for StrictPosted multicast delivery: the
// posted scope covers the whole call, including the host processing
// charged after the message is popped, because a VIA-style receive
// descriptor stays posted while the CPU copies an earlier message out —
// the NIC delivers concurrently arriving fragments into it regardless.
// Only ranks that are sending or computing between calls are unposted.
func (ep *Endpoint) Recv() (transport.Message, error) {
	p := ep.proc
	if p == nil {
		panic("simnet: endpoint used outside Network.Run")
	}
	if err := ep.downErr(); err != nil {
		return transport.Message{}, err
	}
	ep.posted++
	defer func() { ep.posted-- }()
	// An injected compute stall is consumed inside the posted scope: a
	// VIA-style descriptor stays posted while the "CPU" stalls, so a
	// straggler never reintroduces the lost-multicast failure mode.
	ep.consumeStraggle(p)
	a, ok := ep.inbox.Recv(p)
	if !ok {
		return transport.Message{}, ep.downErr()
	}
	prof := &ep.nw.prof
	p.Sleep(prof.ORecv + sim.Duration(a.frags)*prof.OFrag + sim.Duration(len(a.msg.Payload))*prof.OByte)
	return a.msg, nil
}

// RecvTimeout implements transport.Endpoint against virtual time,
// with the same whole-call posted scope as Recv.
func (ep *Endpoint) RecvTimeout(timeout int64) (transport.Message, bool, error) {
	p := ep.proc
	if p == nil {
		panic("simnet: endpoint used outside Network.Run")
	}
	if err := ep.downErr(); err != nil {
		return transport.Message{}, false, err
	}
	ep.posted++
	defer func() { ep.posted-- }()
	ep.consumeStraggle(p)
	a, ok := ep.inbox.RecvDeadline(p, ep.nw.eng.Now()+sim.Time(timeout))
	if !ok {
		if ep.inbox.Closed() {
			return transport.Message{}, false, ep.downErr()
		}
		return transport.Message{}, false, nil
	}
	prof := &ep.nw.prof
	p.Sleep(prof.ORecv + sim.Duration(a.frags)*prof.OFrag + sim.Duration(len(a.msg.Payload))*prof.OByte)
	return a.msg, true, nil
}

// Close implements transport.Endpoint.
func (ep *Endpoint) Close() error {
	if !ep.closed {
		ep.closed = true
		ep.streams.Stop()
		ep.inbox.Close()
	}
	return nil
}
