// Package udpnet implements the transport over real UDP sockets with
// genuine IP multicast via package net — the same kernel code path the
// paper's implementation used on its Fast Ethernet cluster.
//
// A world is a set of endpoints in one process (or, with cmd/mpirun, one
// per process on one host): each rank owns a unicast socket for
// point-to-point traffic and one socket per multicast group it joined.
// Multicast sends address the class-D group derived from the
// communicator context (the paper's 224.0.0.0 – 239.255.255.255 range);
// the IP_MULTICAST_LOOP default loops outgoing multicast back to local
// members, so all ranks on the host receive a single transmission.
//
// A multicast datagram goes where it was addressed and nowhere else.
// Every sending socket is pinned to, and every membership taken on, one
// interface (Path) that FindPath chose by sending a datagram around it:
// the loopback interface wherever it is up, so group traffic stays on
// the host instead of leaving through whichever NIC carries the
// MULTICAST flag. And on Linux each group socket clears
// IP_MULTICAST_ALL, so it hears the group it joined and not every group
// on its port: a slice addressed to another rank dies in the kernel, as
// it dies at the simulated NIC's address filter. Nothing above depends
// on that filter — the own-copy check in the read loop and the runtime's
// staleness checks drop what a socket should not have heard on systems
// without it. Numbers taken on a loopback path measure this stack and
// the kernel's socket code; they say nothing about a wire.
//
// IP multicast offers no delivery guarantee. The scout-synchronized
// collectives of package core provide the readiness guarantee; within a
// host the kernel's socket buffers do the rest. Environments without
// multicast support (no route for 224.0.0.0/4, restricted containers)
// are detected by Probe and reported so callers can skip or fall back.
package udpnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"strconv"

	"repro/internal/metrics"
	"repro/internal/reliab"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
)

// recvBufPool holds the 64KiB datagram receive buffers the per-socket
// read loops borrow for their lifetime.
var recvBufPool = sync.Pool{New: func() any {
	b := make([]byte, 65536)
	return &b
}}

// wireBufPool holds scratch buffers for wire encoding on the send
// paths: a fragment is encoded into a pooled buffer, handed to the
// kernel (the write copies), and the buffer returns to the pool.
var wireBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// Config describes a localhost world: its size and multicast port, the
// loss injections, a declared topology and the observers. The datagram
// payload (fragSize), the group prefix (groupAddr), the socket buffers
// (readBuffer) and the reliable stream (package reliab) are constants.
type Config struct {
	// N is the world size.
	N int
	// McastPort is the UDP port shared by all multicast groups.
	// Endpoints bind the group address, so sharing a port is safe.
	McastPort int
	// P2PLossRate injects independent receiver-side loss of
	// point-to-point fragments (any frame the stream layer can repair:
	// data, modeled-TCP traffic, the stream's own acks and probes), for
	// exercising the stream's retransmission over real sockets; loopback
	// UDP rarely loses anything by itself.
	P2PLossRate float64
	// LossRate injects independent receiver-side loss of multicast
	// fragments the same way, for exercising the NACK repair of package
	// core over real sockets (simnet's Profile.LossRate).
	LossRate float64
	// LossSeed seeds both loss injections (0: a fixed default).
	LossSeed int64
	// SegmentFanout declares the fabric topology as stations per segment
	// (the udpnet analogue of the simulator's Profile.UplinkFanout) for
	// the topology subsystem: real sockets cannot discover the wiring, so
	// a deployment that knows it states it here and the topology-aware
	// collectives cluster by it. 0 means no declared topology.
	SegmentFanout int
	// Trace, when non-nil, is the flight recorder every endpoint exposes
	// through trace.Carrier; timestamps are wall-clock nanoseconds since
	// the world started. The recorder is mutex-protected — ranks record
	// concurrently from their app threads and read loops.
	Trace *trace.Recorder
	// Metrics, when non-nil, is the live telemetry registry every
	// endpoint exposes through metrics.Carrier: continuous stream
	// RTT/window/retransmit observables and per-NIC delivered rates,
	// updated from app threads and read loops and scraped concurrently
	// by the mpirun HTTP endpoint. Timestamps are wall-clock
	// nanoseconds since the world started.
	Metrics *metrics.Registry
}

// DefaultMcastPort is the multicast port of DefaultConfig. It lies below
// Linux's ephemeral range (32768 and up by default), as any McastPort
// should: inside it, a socket anywhere on the host bound to port 0 — a
// rank's sending socket, say — can already hold the port, and binding a
// group address on it fails with "address already in use".
const DefaultMcastPort = 29999

const (
	// fragSize bounds the message payload per datagram, conservatively
	// under the 1472-byte UDP maximum the paper's Ethernet allowed.
	fragSize = 1400
	// readBuffer sizes each socket's kernel receive buffer.
	readBuffer = 1 << 20
)

// DefaultConfig returns a working localhost configuration.
func DefaultConfig(n int) Config {
	return Config{N: n, McastPort: DefaultMcastPort}
}

// Net is one in-host world of endpoints.
type Net struct {
	cfg     Config
	path    Path // where multicast is sent and joined
	eps     []*Endpoint
	start   time.Time
	topoMap *topo.Map // declared placement (nil: none)
}

// Path reports where the world's multicast datagrams go.
func (nw *Net) Path() Path { return nw.path }

// groupAddr maps a communicator context to a class-D address inside
// 239.77.0.0/16, in the administratively scoped range, on the shared
// multicast port.
func (nw *Net) groupAddr(group uint32) netip.AddrPort {
	ip := [4]byte{239, 77, byte(group >> 8), byte(group)}
	return netip.AddrPortFrom(netip.AddrFrom4(ip), uint16(nw.cfg.McastPort))
}

// New builds the world: one unicast socket per rank on an ephemeral
// loopback port (ranks learn each other's addresses in-process).
func New(cfg Config) (*Net, error) {
	if cfg.McastPort == 0 {
		cfg.McastPort = DefaultMcastPort
	}
	if cfg.N <= 0 {
		return nil, errors.New("udpnet: world size must be positive")
	}
	// Where no path works the world still carries point-to-point traffic
	// (its groups are joined on the kernel's default, the last path
	// tried); Probe is how callers learn why multicast does not.
	path, _ := FindPath()
	nw := &Net{cfg: cfg, path: path, start: time.Now()}
	if cfg.SegmentFanout > 0 {
		nw.topoMap = topo.Uniform(cfg.N, cfg.SegmentFanout)
	}
	peers := make([]netip.AddrPort, cfg.N)
	for i := 0; i < cfg.N; i++ {
		conn, err := path.sender()
		if err != nil {
			nw.Close()
			return nil, fmt.Errorf("udpnet: unicast socket for rank %d: %w", i, err)
		}
		_ = conn.SetReadBuffer(readBuffer)
		ep := &Endpoint{
			net:    nw,
			rank:   i,
			uc:     conn,
			inbox:  make(chan transport.Message, 4096),
			groups: make(map[uint32]*net.UDPConn),
			done:   make(chan struct{}),

			// Per-NIC telemetry handles, registered eagerly so every
			// family exists from the first scrape (nil registry → nil
			// no-op handles).
			mDelivBytes: cfg.Metrics.Meter(
				metrics.Labeled("mcast_nic_delivered_bytes", "rank", strconv.Itoa(i)), metrics.DefaultMeterTau),
			mDelivFrames: cfg.Metrics.Meter(
				metrics.Labeled("mcast_nic_delivered_frames", "rank", strconv.Itoa(i)), metrics.DefaultMeterTau),

			probeTimers: make([]*time.Timer, cfg.N),
			ackWake:     make(chan struct{}),
		}
		ep.streams = reliab.NewDriver(reliab.Host{
			Rank: i, Size: cfg.N, FragPayload: fragSize,
			Stats: &ep.sstats, Trace: cfg.Trace, Metrics: cfg.Metrics,
		})
		ep.sendCond = sync.NewCond(&ep.mu)
		seed := cfg.LossSeed
		if seed == 0 {
			seed = 0x5EED
		}
		// De-correlate the endpoints' loss draws by rank.
		ep.lossRng = rand.New(rand.NewSource(seed + int64(i)*7919))
		port := conn.LocalAddr().(*net.UDPAddr).Port
		peers[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(port))
		nw.eps = append(nw.eps, ep)
	}
	for _, ep := range nw.eps {
		ep.peers = peers
		ep.wg.Add(1)
		go ep.readLoop(ep.uc)
	}
	return nw, nil
}

// Endpoint returns rank i's endpoint.
func (nw *Net) Endpoint(i int) *Endpoint { return nw.eps[i] }

// Size returns the world size.
func (nw *Net) Size() int { return len(nw.eps) }

// Close shuts down every endpoint.
func (nw *Net) Close() {
	for _, ep := range nw.eps {
		if ep != nil {
			_ = ep.Close()
		}
	}
}

// Stats counts transport events at one endpoint. Stream counters are
// kept as atomics internally (reliab.StatCounters) and copied out by
// Stats(), so concurrent readers — the mpirun stats print, the HTTP
// metrics sampler, the -deadline abort dump — never tear a count.
type Stats struct {
	DatagramsSent int64
	// DatagramsReceived counts messages reassembled and handed up, not the
	// datagrams read: a message of n fragments counts once.
	DatagramsReceived int64
	BadPackets        int64
	OwnMulticast      int64 // own multicast heard via loopback, filtered
	InjectedP2PLosses int64 // receiver-side losses from Config.P2PLossRate
	InjectedLosses    int64 // receiver-side multicast losses from Config.LossRate
	RepairsHeard      int64 // fragments that arrived flagged as retransmissions
	Stream            reliab.Stats
}

// Endpoint is one rank's sockets.
type Endpoint struct {
	net   *Net
	rank  int
	uc    *net.UDPConn
	peers []netip.AddrPort

	mu        sync.Mutex
	groups    map[uint32]*net.UDPConn
	msgID     atomic.Uint64 // last device message id handed out
	lastMcast uint64
	closed    bool
	stats     Stats
	sstats    reliab.StatCounters // stream counters, atomic (lock-free increments)

	// Live telemetry handles (nil when Config.Metrics is nil; every
	// method on a nil handle is an allocation-free no-op).
	mDelivBytes  *metrics.Meter
	mDelivFrames *metrics.Meter

	// streams runs the reliable point-to-point streams (package reliab)
	// and reassembles every arriving message, guarded by mu like the probe
	// timers it asks for (by peer; nil when none is pending). sendCond
	// wakes senders blocked on a full window.
	streams     *reliab.Driver
	probeTimers []*time.Timer
	sendCond    *sync.Cond
	lossRng     *rand.Rand

	// killed is the process-local kill switch, guarded by mu: the rank
	// drops every arrival and errors every call, while its sockets stay
	// open so the death is silent on the wire (peers' pings time out,
	// exactly like a crashed process whose host answers no one). ackWake
	// is closed and replaced on each stream ack so pingers can block on it.
	killed  bool
	ackWake chan struct{}

	inbox chan transport.Message
	done  chan struct{}
	wg    sync.WaitGroup
}

var (
	_ transport.Endpoint = (*Endpoint)(nil)
	_ transport.Wire     = (*Endpoint)(nil)
	_ topo.Provider      = (*Endpoint)(nil)
	_ trace.Carrier      = (*Endpoint)(nil)
	_ metrics.Carrier    = (*Endpoint)(nil)
)

// TraceRecorder implements trace.Carrier: the world-wide flight recorder
// from Config.Trace, nil when tracing is disabled.
func (ep *Endpoint) TraceRecorder() *trace.Recorder { return ep.net.cfg.Trace }

// MetricsRegistry implements metrics.Carrier: the world-wide live
// telemetry registry from Config.Metrics, nil when disabled.
func (ep *Endpoint) MetricsRegistry() *metrics.Registry { return ep.net.cfg.Metrics }

// Rank implements transport.Endpoint.
func (ep *Endpoint) Rank() int { return ep.rank }

// TopoMap implements topo.Provider with the declared placement
// (Config.SegmentFanout), or nil when none was declared.
func (ep *Endpoint) TopoMap() *topo.Map { return ep.net.topoMap }

// Size implements transport.Endpoint.
func (ep *Endpoint) Size() int { return len(ep.peers) }

// Now implements transport.Endpoint with the wall clock.
func (ep *Endpoint) Now() int64 { return time.Since(ep.net.start).Nanoseconds() }

// Stats returns a copy of the endpoint's counters, including an atomic
// snapshot of the stream counters (safe while the transport is live).
func (ep *Endpoint) Stats() Stats {
	ep.mu.Lock()
	st := ep.stats
	ep.mu.Unlock()
	st.Stream = ep.sstats.Snapshot()
	return st
}

// Kill is the process-local fault injection switch: the rank becomes
// silently dead. Every arrival is dropped, every subsequent call errors
// with transport.ErrKilled, blocked receives and window waits wake —
// but the sockets stay open, so nothing on the wire distinguishes the
// kill from a crashed process on a live host: peers' pings simply go
// unanswered until the failure detector times them out.
func (ep *Endpoint) Kill() {
	ep.mu.Lock()
	if ep.killed || ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.killed = true
	ep.closeDoneLocked()
	ep.sendCond.Broadcast()
	ep.stopStreamsLocked()
	ep.mu.Unlock()
}

// stopStreamsLocked ends probing: every pending probe timer is stopped,
// and the driver turns a fire already under way into a no-op. Caller
// holds mu.
func (ep *Endpoint) stopStreamsLocked() {
	ep.streams.Stop()
	for _, t := range ep.probeTimers {
		if t != nil {
			t.Stop()
		}
	}
}

// Streams reports the state of the endpoint's send streams, for a
// stuck-run dump.
func (ep *Endpoint) Streams() []reliab.StreamState {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.streams.Streams()
}

// KillRank kills rank r's endpoint (see Endpoint.Kill).
func (nw *Net) KillRank(r int) { nw.eps[r].Kill() }

// FailPeer implements transport.Wire: the failure detector
// declared dst dead. Sends to it turn into silent no-ops and its stream
// stops probing, so background retransmission toward a corpse cannot
// exhaust the probe budget and poison the whole endpoint.
func (ep *Endpoint) FailPeer(dst int) {
	if dst < 0 || dst >= len(ep.peers) {
		return
	}
	ep.mu.Lock()
	ep.streams.FailPeer(dst)
	ep.sendCond.Broadcast()
	ep.mu.Unlock()
}

// Ping implements transport.Wire: it solicits one stream
// acknowledgment from dst and reports whether any ack from dst arrived
// within timeout. The probe is answered on the receiver's read loop —
// below the application — so a rank that is slow or compute-bound still
// answers; only a killed or crashed one stays silent. A rank is not its
// own peer: Ping(self) is false, as on simnet.
func (ep *Endpoint) Ping(dst int, timeout int64) bool {
	if dst < 0 || dst >= len(ep.peers) || dst == ep.rank {
		return false
	}
	ep.mu.Lock()
	if ep.closed || ep.killed {
		ep.mu.Unlock()
		return false
	}
	probe, before := ep.streams.Ping(dst)
	wake := ep.ackWake
	ep.mu.Unlock()
	ep.writeCtl(dst, probe)

	t := time.NewTimer(time.Duration(timeout))
	defer t.Stop()
	for {
		select {
		case <-wake:
		case <-t.C:
			return false
		case <-ep.done:
			return false
		}
		ep.mu.Lock()
		got := ep.streams.AcksSeen(dst) > before
		wake = ep.ackWake
		gone := ep.killed || ep.closed
		ep.mu.Unlock()
		if gone {
			return false
		}
		if got {
			return true
		}
	}
}

// Send implements transport.Endpoint: fragments m and writes each
// fragment to the destination's unicast socket.
func (ep *Endpoint) Send(dst int, m transport.Message) error {
	if dst < 0 || dst >= len(ep.peers) {
		return fmt.Errorf("udpnet: send to rank %d outside world of %d", dst, len(ep.peers))
	}
	ep.mu.Lock()
	if ep.killed {
		ep.mu.Unlock()
		return transport.ErrKilled
	}
	if ep.streams.PeerFailed(dst) {
		ep.mu.Unlock()
		return nil
	}
	ep.mu.Unlock()
	m.Kind = transport.P2P
	return ep.write(ep.peers[dst], m)
}

// SendReliable implements transport.Wire: m rides the
// per-peer sequence-numbered stream to dst with a sliding send window
// (the call blocks while the window is full) and the stream layer
// retransmits whatever the receiver proves lost — over real sockets,
// where the kernel can genuinely drop a datagram under buffer pressure.
func (ep *Endpoint) SendReliable(dst int, m transport.Message) error {
	if dst < 0 || dst >= len(ep.peers) {
		return fmt.Errorf("udpnet: send to rank %d outside world of %d", dst, len(ep.peers))
	}
	ep.mu.Lock()
	if ep.streams.Full(dst) {
		ep.stepUnlock(dst, ep.streams.Stall(ep.Now(), dst))
		ep.mu.Lock()
	}
	// Admission, re-checked after every wake-up: while this sender waited
	// for window space the endpoint may have gone down or the failure
	// detector declared dst dead (sends to a dead peer are silent no-ops).
	for ; ; ep.sendCond.Wait() {
		if err := ep.downLocked(); err != nil || ep.streams.PeerFailed(dst) {
			ep.mu.Unlock()
			return err
		}
		if !ep.streams.Full(dst) {
			break
		}
	}
	frags, seq := ep.streams.Begin(dst, m, ep.msgID.Add(1))
	ep.mu.Unlock()

	err := ep.writeFrags(ep.peers[dst], frags...)

	ep.mu.Lock()
	ep.stepUnlock(dst, ep.streams.Sent(ep.Now(), dst, seq))
	return err
}

// stepUnlock carries out what the stream driver asked for, in the order
// reliab.Step documents. The caller holds mu; stepUnlock releases it
// before the step's frames are written — no datagram is ever written
// under the lock. A failed stream closes done, so blocked senders and
// receivers observe the error instead of hanging.
func (ep *Endpoint) stepUnlock(peer int, st reliab.Step) {
	if st.Err != nil {
		ep.sendCond.Broadcast()
		ep.closeDoneLocked()
	}
	if st.Acked {
		close(ep.ackWake)
		ep.ackWake = make(chan struct{})
	}
	if st.Arm > 0 && !ep.closed {
		ep.probeTimers[peer] = time.AfterFunc(time.Duration(st.Arm), func() {
			ep.mu.Lock()
			ep.probeTimers[peer] = nil
			ep.stepUnlock(peer, ep.streams.OnTimer(ep.Now(), peer))
		})
	}
	if st.Freed {
		ep.sendCond.Broadcast()
	}
	ep.mu.Unlock()
	ep.writeCtl(peer, st.Ctl)
	for _, r := range st.Resend {
		// A retransmission the socket refuses is repaired like one the
		// wire lost: by the next probe.
		_ = ep.writeFrags(ep.peers[peer], r.Frags...)
	}
}

// closeDoneLocked closes the done channel exactly once. Caller holds mu.
func (ep *Endpoint) closeDoneLocked() {
	select {
	case <-ep.done:
	default:
		close(ep.done)
	}
}

// downLocked reports why the endpoint refuses work — the rank was
// killed, a stream failed, the endpoint was closed — or nil while it is
// up. Caller holds mu.
func (ep *Endpoint) downLocked() error {
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

// closeErr is the error surfaced on operations after done was closed.
func (ep *Endpoint) closeErr() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.downLocked()
}

// writeCtl sends one stream control frame (probe or ack) to rank dst; a
// nil body — the driver had nothing to say — sends nothing. Control
// frames are droppable by design: one the socket refuses is repaired by
// the next probe, so the write error is dropped.
func (ep *Endpoint) writeCtl(dst int, body []byte) {
	if body == nil {
		return
	}
	_ = ep.writeFrags(ep.peers[dst], reliab.CtlFrame(ep.rank, ep.msgID.Add(1), body))
}

// Multicast implements transport.Endpoint: fragments m and writes each
// fragment to the group address once. The kernel (and the LAN, on real
// hardware) fans it out to members; our own looped-back copy is filtered
// in readLoop.
func (ep *Endpoint) Multicast(group uint32, m transport.Message) error {
	m.Kind = transport.Mcast
	return ep.write(ep.net.groupAddr(group), m)
}

func (ep *Endpoint) write(dst netip.AddrPort, m transport.Message) error {
	ep.mu.Lock()
	if err := ep.downLocked(); err != nil {
		ep.mu.Unlock()
		return err
	}
	id := ep.msgID.Add(1)
	if m.Kind == transport.Mcast {
		ep.lastMcast = id
	}
	ep.mu.Unlock()

	m.Src = ep.rank
	return ep.writeFrags(dst, transport.Split(m, id, fragSize)...)
}

// writeFrags is the one place a datagram leaves this endpoint: each
// fragment is encoded into a pooled buffer, handed to the kernel (the
// write copies) and counted in Stats.DatagramsSent. The caller must not
// hold mu.
func (ep *Endpoint) writeFrags(dst netip.AddrPort, frags ...transport.Fragment) error {
	bp := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(bp)
	var err error
	sent := 0
	for _, f := range frags {
		*bp = transport.AppendFragment((*bp)[:0], f)
		if _, err = ep.uc.WriteToUDPAddrPort(*bp, dst); err != nil {
			err = fmt.Errorf("udpnet: write to %v: %w", dst, err)
			break
		}
		sent++
	}
	ep.mu.Lock()
	ep.stats.DatagramsSent += int64(sent)
	ep.mu.Unlock()
	return err
}

// LastMulticastID implements transport.Wire.
func (ep *Endpoint) LastMulticastID() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.lastMcast
}

// RepairMulticast implements transport.Wire: the named
// fragments of m (nil = all) are retransmitted to group under the
// original message id, completing receivers' partial reassembly.
func (ep *Endpoint) RepairMulticast(group uint32, m transport.Message, msgID uint64, frags []int) error {
	ep.mu.Lock()
	if err := ep.downLocked(); err != nil {
		ep.mu.Unlock()
		return err
	}
	ep.mu.Unlock()
	m.Kind = transport.Mcast
	m.Src = ep.rank
	send, err := transport.RepairFragments(m, msgID, fragSize, frags)
	if err != nil {
		return err
	}
	return ep.writeFrags(ep.net.groupAddr(group), send...)
}

// PendingFrom implements transport.Wire from the stream
// driver's reassembly state.
func (ep *Endpoint) PendingFrom(src int) (msgID uint64, missing []int, seen transport.Arrivals, ok bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.streams.PendingFrom(src)
}

// LastLoss implements transport.Wire from the stream driver.
func (ep *Endpoint) LastLoss() int64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.streams.LastLoss()
}

// MaxFragPayload implements transport.Wire.
func (ep *Endpoint) MaxFragPayload() int { return fragSize }

// PostRecvs implements transport.Wire as a no-op: a read loop blocks on
// the inbox channel rather than drop a message, so none is ever lost for
// want of a posted receive.
func (ep *Endpoint) PostRecvs(int) {}

// UnpostRecvs implements transport.Wire as a no-op (see PostRecvs).
func (ep *Endpoint) UnpostRecvs(int) {}

// Join implements transport.Endpoint: it opens a socket that is a
// member of the group on the world's multicast path and starts a reader
// for it.
func (ep *Endpoint) Join(group uint32) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if err := ep.downLocked(); err != nil {
		return err
	}
	if _, ok := ep.groups[group]; ok {
		return nil
	}
	conn, _, err := ep.net.path.listen(ep.net.groupAddr(group))
	if err != nil {
		return fmt.Errorf("udpnet: %w", err)
	}
	_ = conn.SetReadBuffer(readBuffer)
	ep.groups[group] = conn
	ep.wg.Add(1)
	go ep.readLoop(conn)
	return nil
}

// Leave implements transport.Endpoint.
func (ep *Endpoint) Leave(group uint32) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	conn, ok := ep.groups[group]
	if !ok {
		return nil
	}
	delete(ep.groups, group)
	return conn.Close()
}

// readLoop decodes datagrams from one socket into the shared inbox. Loss
// injection and the own-copy filter are the endpoint's; under mu, a
// control frame goes to the stream driver's OnCtl and every other
// fragment to its Receive, which suppresses duplicates, reassembles,
// delivers and says which acks to write around the hand-up.
func (ep *Endpoint) readLoop(conn *net.UDPConn) {
	defer ep.wg.Done()
	// Receive buffers are pooled across sockets and endpoints: every
	// Join spins up a reader, and communicator churn (Dup/Split per
	// benchmark round) would otherwise allocate 64KiB per group socket.
	// The buffer is reused across reads, which is safe because each
	// datagram is fully consumed (payloads copied by the reassembler)
	// before the next read overwrites it.
	bp := recvBufPool.Get().(*[]byte)
	defer recvBufPool.Put(bp)
	buf := *bp
	for {
		n, _, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		f, err := transport.DecodeFragment(buf[:n])
		if err != nil {
			ep.mu.Lock()
			ep.stats.BadPackets++
			ep.mu.Unlock()
			continue
		}
		ep.mu.Lock()
		if ep.killed {
			// A dead rank's NIC hears everything and answers nothing.
			ep.mu.Unlock()
			continue
		}
		if f.Msg.Kind == transport.Mcast && f.Msg.Src == ep.rank {
			// Our own multicast looped back by the kernel.
			ep.stats.OwnMulticast++
			ep.mu.Unlock()
			continue
		}
		if f.Msg.Kind == transport.P2P && ep.net.cfg.P2PLossRate > 0 &&
			ep.lossRng.Float64() < ep.net.cfg.P2PLossRate {
			// Injected receiver-side loss: any point-to-point frame kind
			// may vanish — modeled-TCP baseline traffic, stream acks and
			// probes included.
			ep.stats.InjectedP2PLosses++
			ep.mu.Unlock()
			continue
		}
		if f.Msg.Kind == transport.Mcast && ep.net.cfg.LossRate > 0 &&
			ep.lossRng.Float64() < ep.net.cfg.LossRate {
			ep.stats.InjectedLosses++
			ep.mu.Unlock()
			continue
		}
		if f.Repair {
			// Someone in earshot sent a frame twice — said by the flag,
			// not guessed from a fragment of a multicast already complete:
			// without the group filter a socket hears groups it never
			// joined, so those arrive on a lossless network too.
			ep.stats.RepairsHeard++
			ep.streams.LossSeen(ep.Now())
		}
		src := f.Msg.Src
		if f.Ctl {
			ep.stepUnlock(src, ep.streams.OnCtl(ep.Now(), src, f.Msg.Payload))
			continue
		}
		// The inbox blocks rather than overflows: there is always room.
		now := ep.Now()
		a := ep.streams.Receive(now, f, true)
		if a.Done {
			ep.stats.DatagramsReceived++
			ep.mDelivBytes.Mark(now, int64(len(a.Msg.Payload)))
			ep.mDelivFrames.Mark(now, int64(a.Frags))
		}
		closed := ep.closed
		ep.mu.Unlock()
		for i := 0; i < a.Acks; i++ {
			ep.writeCtl(src, a.Ack)
		}
		if a.Done && !closed {
			select {
			case ep.inbox <- a.Msg:
			case <-ep.done:
				return
			}
		}
		ep.writeCtl(src, a.Throttled)
	}
}

// Recv implements transport.Endpoint.
func (ep *Endpoint) Recv() (transport.Message, error) {
	select {
	case m := <-ep.inbox:
		return m, nil
	case <-ep.done:
		// Drain anything already queued before reporting closure — unless
		// killed: a dead rank delivers nothing, not even backlog.
		err := ep.closeErr()
		if errors.Is(err, transport.ErrKilled) {
			return transport.Message{}, err
		}
		select {
		case m := <-ep.inbox:
			return m, nil
		default:
			return transport.Message{}, err
		}
	}
}

// RecvTimeout implements transport.Endpoint.
func (ep *Endpoint) RecvTimeout(timeout int64) (transport.Message, bool, error) {
	t := time.NewTimer(time.Duration(timeout))
	defer t.Stop()
	select {
	case m := <-ep.inbox:
		return m, true, nil
	case <-t.C:
		return transport.Message{}, false, nil
	case <-ep.done:
		return transport.Message{}, false, ep.closeErr()
	}
}

// Close implements transport.Endpoint.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	ep.closeDoneLocked()
	ep.sendCond.Broadcast()
	ep.stopStreamsLocked()
	conns := []*net.UDPConn{ep.uc}
	for _, c := range ep.groups {
		conns = append(conns, c)
	}
	ep.groups = make(map[uint32]*net.UDPConn)
	ep.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	ep.wg.Wait()
	return nil
}
