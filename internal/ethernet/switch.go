package ethernet

import "repro/internal/sim"

// SwitchStats counts forwarding events.
type SwitchStats struct {
	FramesForwarded int64 // frame copies enqueued on egress ports
	FramesFlooded   int64 // frames flooded for an unknown unicast dst
	QueueDrops      int64 // always 0 (a full queue PAUSEs); the benchmark reads it
	MulticastDrops  int64 // multicast frames with no snooped members
	PauseEvents     int64 // source NICs paused by egress backpressure
	MaxQueueDepth   int   // highest egress queue depth seen on any port
	PartitionDrops  int64 // frames dropped by an injected uplink partition
}

// SwitchPortStats is one egress port's occupancy record, for the
// queue-depth instrumentation the shared-uplink experiments assert on.
type SwitchPortStats struct {
	Stations      int   // stations attached (1, or the segment fanout)
	Forwarded     int64 // frame copies enqueued
	HighWatermark int   // deepest egress queue observed, in frames
	Held          int64 // frames parked at ingress by flow control
}

// Switch is a store-and-forward switching hub with MAC learning and IGMP
// snooping. Each attached station gets a dedicated full-duplex port: the
// station-to-switch direction is serialized by the NIC, the
// switch-to-station direction by the port's egress queue. A frame
// traverses the switch in (full ingress serialization) + SwitchLatency +
// (egress serialization) + propagation, which is why the paper observes
// higher per-frame latency on the switch than on the hub for multicast
// while the hub degrades under contention.
//
// Two extensions model the dimensions the paper's 8-port testbed could
// not reach:
//
//   - Flow control, the only egress policy: a frame bound for a full
//     egress queue is parked at ingress and the source station is PAUSEd
//     (802.3x-style) until the queue drains below its cap. Converging
//     bursts — the (N-1)-senders-one-root gather funnel — then
//     backpressure the senders' host queues rather than vanishing, which
//     is what lets the gather collective survive bursts beyond
//     SwitchQueueCap frames. The switch itself loses a frame only to an
//     injected partition or as a multicast no port has joined.
//
//   - Shared-uplink segments (AttachSegment): several stations share one
//     port through a half-duplex segment, modeling stacked/cascaded
//     switches where a port's bandwidth is an uplink shared by a group.
//     One egress transmission is heard by every station on the segment
//     (multicast pays the uplink once per group), while stations contend
//     for the segment in both directions.
type Switch struct {
	eng    *sim.Engine
	params Params

	ports    []*swPort
	macTable map[MAC]*swPort
	groups   map[MAC]*group // snooped membership per multicast address
	heldBy   map[*NIC]int   // frames parked per paused source NIC
	cuts     map[int]portCut
	tap      SwitchTap

	Stats SwitchStats
}

// SwitchTap observes fabric occupancy as it changes: egress queue depth
// after every enqueue and dequeue, and the count of 802.3x-paused
// stations after every transition. The simulator wires it to the
// flight recorder when tracing is enabled; nil fields are skipped. The
// callbacks only observe — they must not mutate the switch or schedule
// events, so a tap can never move a simulated timestamp.
type SwitchTap struct {
	QueueDepth func(port, depth int)
	Paused     func(stations int)
}

// SetTap installs the occupancy observer (zero value to remove).
func (s *Switch) SetTap(t SwitchTap) { s.tap = t }

// portCut is one injected uplink partition: the port forwards nothing
// (in either direction) during [from, to). Segment-local traffic is
// unaffected — stations on a shared segment still hear each other
// directly; only the path through the switch fabric is cut, modeling a
// failed uplink between a leaf segment and the core.
type portCut struct {
	from, to sim.Time
}

// group is one snooped multicast address: per-port refcounts plus the
// cached member-port fan-out, kept sorted by attachment order so the
// forwarding loop walks exactly the member ports — maintained
// incrementally on join/leave instead of rebuilt from all ports on every
// frame.
type group struct {
	refs  map[*swPort]int
	ports []*swPort
}

// heldFrame is a frame parked at ingress because its egress queue was
// full; src is the station the park paused.
type heldFrame struct {
	f   Frame
	src *NIC
}

// segJob is one pending transmission on a shared segment: a station's
// ingress frame, or the port's egress frame toward the stations.
type segJob struct {
	f      Frame
	nic    *NIC // transmitting station (nil for egress)
	egress bool
}

type swPort struct {
	sw   *Switch
	nics []*NIC
	idx  int // attachment order, the deterministic fan-out order

	outq    fifo[Frame]
	outBusy bool
	waitq   fifo[heldFrame] // frames parked by flow control

	// Shared-segment arbitration (len(nics) > 1): the half-duplex medium
	// serializes ingress and egress transmissions in FIFO order.
	segBusy bool
	segQ    fifo[segJob]

	stats SwitchPortStats
}

// NewSwitch creates an empty switch.
func NewSwitch(eng *sim.Engine, params Params) *Switch {
	return &Switch{
		eng:      eng,
		params:   params,
		macTable: make(map[MAC]*swPort),
		groups:   make(map[MAC]*group),
		heldBy:   make(map[*NIC]int),
	}
}

// Attach connects a NIC to a fresh dedicated switch port.
func (s *Switch) Attach(n *NIC) {
	p := &swPort{sw: s, nics: []*NIC{n}, idx: len(s.ports)}
	p.stats.Stations = 1
	s.ports = append(s.ports, p)
	n.Attach(p)
}

// AttachSegment connects a group of stations to one switch port through
// a shared half-duplex segment — the shared-uplink port mode. The
// segment serializes all transmissions (ingress and egress) in FIFO
// order; an egress frame is heard by every station on the segment, and a
// station's transmission is heard by its segment neighbours as well as
// forwarded by the switch.
func (s *Switch) AttachSegment(nics []*NIC) {
	if len(nics) == 0 {
		panic("ethernet: empty segment")
	}
	p := &swPort{sw: s, nics: append([]*NIC(nil), nics...), idx: len(s.ports)}
	p.stats.Stations = len(nics)
	s.ports = append(s.ports, p)
	for _, n := range nics {
		n.Attach(p)
	}
}

// PortStats returns a copy of every port's occupancy counters, in
// attachment order.
func (s *Switch) PortStats() []SwitchPortStats {
	out := make([]SwitchPortStats, len(s.ports))
	for i, p := range s.ports {
		out[i] = p.stats
	}
	return out
}

func (p *swPort) shared() bool { return len(p.nics) > 1 }

// PartitionPort cuts the fabric path through port idx during the
// event-time window [from, to): frames arriving from the port are not
// forwarded, and frames bound for it are dropped before flow control
// (a partitioned link cannot backpressure its sender). Deterministic —
// the cut is a pure function of event time.
func (s *Switch) PartitionPort(idx int, from, to sim.Time) {
	if idx < 0 || idx >= len(s.ports) {
		panic("ethernet: PartitionPort on unknown port")
	}
	if s.cuts == nil {
		s.cuts = make(map[int]portCut)
	}
	s.cuts[idx] = portCut{from: from, to: to}
}

// partitioned reports whether p's uplink is cut at the current event
// time.
func (s *Switch) partitioned(p *swPort) bool {
	c, ok := s.cuts[p.idx]
	if !ok {
		return false
	}
	now := s.eng.Now()
	return now >= c.from && now < c.to
}

// transmit implements Link for the station-to-switch direction. On a
// dedicated port the link is full duplex, so there is never contention
// (the NIC's own queue provides serialization). On a shared segment the
// transmission must win the half-duplex medium first.
func (p *swPort) transmit(n *NIC, f Frame) {
	if p.shared() {
		p.segSubmit(segJob{f: f, nic: n})
		return
	}
	dur := p.sw.params.TxTime(f)
	prop := p.sw.params.PropDelay
	p.sw.eng.At(dur, n.txDone)
	p.sw.eng.At(dur+prop, func() { p.sw.ingress(p, n, f) })
}

// segSubmit queues one transmission on the shared segment and starts the
// pump if the medium is free.
func (p *swPort) segSubmit(j segJob) {
	p.segQ.push(j)
	p.segPump()
}

// segPump runs the next queued transmission on the segment. The model is
// an ideally arbitrated half-duplex medium: transmissions never collide,
// they serialize in arrival order (the CSMA/CD hub model covers the
// collision physics; here the contention cost is the serialization
// itself, which is what a shared uplink fundamentally charges).
func (p *swPort) segPump() {
	if p.segBusy || p.segQ.empty() {
		return
	}
	p.segBusy = true
	j := p.segQ.pop()
	dur := p.sw.params.TxTime(j.f)
	prop := p.sw.params.PropDelay
	if j.egress {
		// Switch-to-segment: every station hears the frame.
		p.sw.eng.At(dur+prop, func() {
			for _, n := range p.nics {
				n.receiveFrame(j.f)
			}
		})
		p.sw.eng.At(dur, func() {
			p.segBusy = false
			p.outBusy = false
			p.segPump()
			p.pumpOut()
		})
		return
	}
	// Station-to-switch: segment neighbours hear the frame (they filter
	// by destination), and the switch receives it for forwarding.
	p.sw.eng.At(dur, j.nic.txDone)
	p.sw.eng.At(dur+prop, func() {
		for _, n := range p.nics {
			if n != j.nic {
				n.receiveFrame(j.f)
			}
		}
		p.sw.ingress(p, j.nic, j.f)
	})
	p.sw.eng.At(dur, func() {
		p.segBusy = false
		p.segPump()
		p.pumpOut()
	})
}

// notifyJoin implements Link: IGMP snooping with per-port refcounts (two
// stations on one segment may join the same group; the port stays in the
// group until the last one leaves).
func (p *swPort) notifyJoin(_ *NIC, g MAC, joined bool) {
	s := p.sw
	if joined {
		m := s.groups[g]
		if m == nil {
			m = &group{refs: make(map[*swPort]int)}
			s.groups[g] = m
		}
		m.refs[p]++
		if m.refs[p] == 1 {
			m.insert(p)
		}
		return
	}
	if m := s.groups[g]; m != nil {
		m.refs[p]--
		if m.refs[p] <= 0 {
			delete(m.refs, p)
			m.remove(p)
		}
		if len(m.refs) == 0 {
			delete(s.groups, g)
		}
	}
}

// insert adds p to the cached fan-out, keeping attachment order.
func (m *group) insert(p *swPort) {
	i := len(m.ports)
	for i > 0 && m.ports[i-1].idx > p.idx {
		i--
	}
	m.ports = append(m.ports, nil)
	copy(m.ports[i+1:], m.ports[i:])
	m.ports[i] = p
}

func (m *group) remove(p *swPort) {
	for i, q := range m.ports {
		if q == p {
			m.ports = append(m.ports[:i], m.ports[i+1:]...)
			return
		}
	}
}

// ingress runs when a frame has been fully received on a port
// (store-and-forward). After the forwarding decision latency the frame is
// enqueued on each egress port. src is the transmitting station, the
// target of any flow-control pause this frame provokes.
func (s *Switch) ingress(from *swPort, src *NIC, f Frame) {
	if s.partitioned(from) {
		s.Stats.PartitionDrops++
		return
	}
	s.macTable[f.Src] = from
	s.eng.At(s.params.SwitchLatency, func() { s.forward(from, src, f) })
}

func (s *Switch) forward(from *swPort, src *NIC, f Frame) {
	switch {
	case f.Dst.IsBroadcast():
		s.flood(from, src, f)
	case f.Dst.IsMulticast():
		// An IGMP-snooping switch drops a multicast no port has joined.
		m := s.groups[f.Dst]
		if m == nil {
			s.Stats.MulticastDrops++
			return
		}
		// The cached fan-out is in attachment order, the same
		// deterministic order the all-ports walk used to produce.
		for _, p := range m.ports {
			if p != from {
				p.enqueue(f, src)
			}
		}
	default:
		if p, ok := s.macTable[f.Dst]; ok {
			if p != from {
				p.enqueue(f, src)
			}
		} else {
			s.Stats.FramesFlooded++
			s.flood(from, src, f)
		}
	}
}

func (s *Switch) flood(from *swPort, src *NIC, f Frame) {
	for _, p := range s.ports {
		if p != from {
			p.enqueue(f, src)
		}
	}
}

// enqueue places a forwarded frame on this egress port. A full queue
// parks the frame and PAUSEs the source station until the queue drains.
func (p *swPort) enqueue(f Frame, src *NIC) {
	if p.sw.partitioned(p) {
		p.sw.Stats.PartitionDrops++
		return
	}
	if p.outq.len() >= p.sw.params.SwitchQueueCap {
		p.stats.Held++
		p.waitq.push(heldFrame{f: f, src: src})
		p.sw.pause(src)
		return
	}
	p.sw.Stats.FramesForwarded++
	p.stats.Forwarded++
	p.outq.push(f)
	if d := p.outq.len(); d > p.stats.HighWatermark {
		p.stats.HighWatermark = d
		if d > p.sw.Stats.MaxQueueDepth {
			p.sw.Stats.MaxQueueDepth = d
		}
	}
	if t := p.sw.tap.QueueDepth; t != nil {
		t(p.idx, p.outq.len())
	}
	p.pumpOut()
}

// pause suspends a source NIC (802.3x PAUSE). A NIC may have frames
// parked on several egress ports at once (a multicast fanned out into
// more than one full queue); it resumes when the last of them drains.
func (s *Switch) pause(n *NIC) {
	if n == nil {
		return
	}
	s.heldBy[n]++
	if s.heldBy[n] == 1 {
		s.Stats.PauseEvents++
		n.setPaused(true)
		if t := s.tap.Paused; t != nil {
			t(len(s.heldBy))
		}
	}
}

func (s *Switch) unpause(n *NIC) {
	if n == nil {
		return
	}
	s.heldBy[n]--
	if s.heldBy[n] <= 0 {
		delete(s.heldBy, n)
		n.setPaused(false)
		if t := s.tap.Paused; t != nil {
			t(len(s.heldBy))
		}
	}
}

// drainWait moves parked frames into freed queue space, resuming their
// sources.
func (p *swPort) drainWait() {
	for !p.waitq.empty() && p.outq.len() < p.sw.params.SwitchQueueCap {
		h := p.waitq.pop()
		p.sw.Stats.FramesForwarded++
		p.stats.Forwarded++
		p.outq.push(h.f)
		p.sw.unpause(h.src)
	}
}

func (p *swPort) pumpOut() {
	if p.outBusy || p.outq.empty() {
		return
	}
	p.outBusy = true
	f := p.outq.pop()
	p.drainWait()
	if t := p.sw.tap.QueueDepth; t != nil {
		t(p.idx, p.outq.len())
	}
	if p.shared() {
		// Egress must win the shared segment like any transmission; the
		// segment pump clears outBusy when the frame is on the wire.
		p.segSubmit(segJob{f: f, egress: true})
		return
	}
	dur := p.sw.params.TxTime(f)
	prop := p.sw.params.PropDelay
	p.sw.eng.At(dur+prop, func() { p.nics[0].receiveFrame(f) })
	p.sw.eng.At(dur, func() {
		p.outBusy = false
		p.pumpOut()
	})
}
