// Package transport defines the device-layer abstraction the MPI library
// runs on — the analogue of MPICH's Abstract Device Interface in the
// paper's Fig. 1 — plus the shared wire format, fragmentation helpers and
// an in-process reference implementation.
//
// Three transports implement the interfaces:
//
//   - MemNet (this package): goroutines and channels, for unit tests and
//     fast in-process runs.
//   - simnet: the discrete-event Fast Ethernet simulator used to
//     regenerate the paper's figures.
//   - udpnet: real UDP sockets with genuine IP multicast via package net.
//
// Point-to-point sends are buffered (they return once the message is
// handed to the device; there is no rendezvous). Multicast delivery is
// receiver-directed exactly as in IP multicast: only endpoints that have
// joined the group receive, and the sender never receives its own
// multicast.
package transport

import (
	"errors"
	"fmt"
)

// Kind distinguishes the two delivery modes a message can arrive by.
type Kind uint8

const (
	// P2P is a point-to-point message addressed to one rank.
	P2P Kind = 1
	// Mcast is a message delivered via a multicast group.
	Mcast Kind = 2
)

func (k Kind) String() string {
	switch k {
	case P2P:
		return "p2p"
	case Mcast:
		return "mcast"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Class labels a message's protocol role for wire accounting. The
// simulator and the trace package count frames per class, which is how
// the frame-count formulas of the paper's §3 are verified.
type Class uint8

const (
	ClassData    Class = iota // application payload
	ClassScout                // readiness scout (no data)
	ClassAck                  // acknowledgment
	ClassNack                 // retransmission request
	ClassControl              // barrier release and other control traffic
	ClassStream               // reliable-stream protocol frames (acks, probes)
)

func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassScout:
		return "scout"
	case ClassAck:
		return "ack"
	case ClassNack:
		return "nack"
	case ClassControl:
		return "control"
	case ClassStream:
		return "stream"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Message is the unit of exchange between endpoints. The transport layer
// moves messages of any size, fragmenting and reassembling internally
// when the medium has an MTU.
type Message struct {
	Kind Kind
	// Comm is the communicator context the message belongs to.
	Comm uint32
	// Src is the world rank of the sender. Transports stamp it on send.
	Src int
	// Tag is the MPI matching tag for point-to-point traffic; collective
	// protocols use a reserved negative tag space (see package mpi).
	Tag int32
	// Seq carries the collective sequence number for multicast matching.
	Seq uint32
	// Class labels the protocol role for accounting.
	Class Class
	// Reliable marks messages sent over a connection-oriented reliable
	// protocol (the paper's MPICH baseline runs point-to-point traffic
	// over TCP, while scouts and multicast data travel over UDP). The
	// simulator charges Profile.TCPPenalty per reliable message.
	Reliable bool
	Payload  []byte
}

// Endpoint is one rank's attachment to the network. All methods are
// called from the owning rank's goroutine (or simulated process) only.
type Endpoint interface {
	// Rank returns this endpoint's world rank.
	Rank() int
	// Size returns the number of endpoints in the world.
	Size() int
	// Send transmits m to world rank dst. It returns once the message is
	// handed to the device; delivery is asynchronous.
	Send(dst int, m Message) error
	// Recv blocks until the next message arrives and returns it. It
	// returns ErrClosed after Close.
	Recv() (Message, error)
	// Now returns monotonic nanoseconds on the endpoint's clock —
	// virtual time for the simulator, wall time otherwise. Latency
	// measurements must use this clock.
	Now() int64
	// Close shuts the endpoint down.
	Close() error
}

// Multicaster is the optional device capability the paper's collectives
// require. Baseline (MPICH-style) collectives run on any Endpoint; the
// multicast collectives in package core type-assert to Multicaster and
// bypass the point-to-point path entirely, mirroring how the paper's
// implementation bypasses the MPICH layering.
type Multicaster interface {
	// Join subscribes the endpoint to group. Messages multicast to a
	// group are delivered to every member except the sender.
	Join(group uint32) error
	// Leave unsubscribes from group.
	Leave(group uint32) error
	// Multicast sends m to every member of group in one operation.
	Multicast(group uint32, m Message) error
}

// FragmentRepairer is the optional capability of fragment-granular
// multicast repair. Devices that fragment messages on the wire (the
// simulator, real UDP) expose it so the NACK protocols in package core
// can retransmit only the fragments a receiver names — making repair
// convergence independent of message size — and so receivers can name
// them, via the device's reassembly state. Devices without an MTU (the
// in-process channel transport) simply do not implement it and the
// protocols fall back to whole-message repair.
type FragmentRepairer interface {
	// LastMulticastID returns the device message id stamped on this
	// endpoint's most recent multicast (0 before the first). Senders
	// capture it right after a Multicast so later repair requests can be
	// matched against the round's data message.
	LastMulticastID() uint64
	// RepairMulticast retransmits the named fragments of m to group
	// under the original message id, so they complete the receivers'
	// partial reassembly instead of starting a fresh message. A nil
	// fragment list resends every fragment (full repair). m must carry
	// the exact payload of the original multicast. Every fragment goes
	// out flagged Fragment.Repair: the whole group hears that the
	// network lost something.
	RepairMulticast(group uint32, m Message, msgID uint64, frags []int) error
	// PendingFrom reports the newest partially reassembled multicast
	// from world rank src: its message id, its missing fragment indexes
	// and when what it holds arrived, on the endpoint's clock. ok=false
	// means nothing from src is pending (the message was never seen at
	// all, or already completed).
	PendingFrom(src int) (msgID uint64, missing []int, seen Arrivals, ok bool)
}

// ReliableSender is the optional capability of windowed reliable
// point-to-point delivery (package reliab): messages to a peer ride a
// per-peer sequence-numbered stream with a sliding send window,
// cumulative acknowledgments and selective retransmission on timeout, so
// a lost fragment — of any frame kind: a scout, a reduce half, a gather
// chunk, even a repair request — is retransmitted instead of deadlocking
// the protocol that was waiting for it. The call may block (or pace, on
// the simulator's virtual clock) while the peer's send window is full:
// that backpressure, not a silent drop, is what bounds the in-flight
// traffic a fast sender can converge on one receiver.
//
// Package mpi routes the collective bypass traffic (messages with
// Reliable=false — the paper's UDP path) through this capability when
// the device offers it; Reliable=true messages model the MPICH baseline's
// kernel TCP and keep the plain path. Devices whose delivery is already
// lossless (the in-process channel transport) simply do not implement it.
type ReliableSender interface {
	// SendReliable transmits m to world rank dst over the reliable
	// stream. It returns once the message is handed to the device with a
	// window reservation; delivery and retransmission are asynchronous.
	SendReliable(dst int, m Message) error
}

// Fragmenter is the optional capability of reporting the device's
// fragment payload size — the message bytes carried per wire frame.
// Protocols that scale timeouts or silence budgets with a message's
// expected fragment count read it here instead of guessing an MTU
// (devices without one, like the in-process channel transport, simply
// do not implement it).
type Fragmenter interface {
	// MaxFragPayload returns the message payload bytes per fragment.
	MaxFragPayload() int
}

// Pacer is the optional capability of pausing the calling rank for a
// duration on the endpoint's clock (virtual time under the simulator,
// wall time otherwise). The pipelined round engine uses it to pace a
// sub-frame data multicast by a scout-frame time so the multicast cannot
// land inside a receiver's scout-forwarding window (see package core).
// Devices without a useful notion of pacing simply do not implement it.
type Pacer interface {
	// Pace suspends the calling rank for d nanoseconds.
	Pace(d int64)
}

// RecvPoster is the optional capability of posting standing receive
// descriptors ahead of the Recv calls that consume them. Under the
// paper's strict-posted discipline a multicast frame arriving while the
// receiver has no descriptor posted is silently lost; a collective in
// which every rank multicasts at once (the two-level allgather and
// alltoall in package core) posts one descriptor per multicast it
// expects up front, so every data frame finds a descriptor no matter how
// the senders interleave. Devices without VIA-style descriptor
// accounting simply do not implement it.
type RecvPoster interface {
	// PostRecvs posts n additional standing receive descriptors.
	PostRecvs(n int)
	// UnpostRecvs retires n previously posted descriptors.
	UnpostRecvs(n int)
}

// DeadlineRecver is the optional capability of receiving with a timeout,
// needed by acknowledgment-based reliability protocols (the PVM-style
// sender-repeats-until-acked broadcast the paper compares against).
type DeadlineRecver interface {
	// RecvTimeout behaves like Endpoint.Recv but gives up after timeout
	// nanoseconds (on the endpoint's clock), returning ok=false.
	RecvTimeout(timeout int64) (m Message, ok bool, err error)
}

// Pinger is the optional capability of an explicit liveness probe. Ping
// sends one stream-layer probe to dst and waits up to timeout
// nanoseconds (on the endpoint's clock) for any stream acknowledgment
// back from it. The probe rides the same wire path as the reliable
// stream's RTO probes, so an answer proves the peer's receive path is
// alive — a rank that is merely computing (a straggler) still answers,
// because stream control is handled at interrupt level, while a dead
// rank never does. The failure detector in package mpi is built on it.
type Pinger interface {
	// Ping reports whether dst acknowledged a liveness probe within
	// timeout nanoseconds.
	Ping(dst int, timeout int64) bool
}

// PeerFailer is the optional capability of declaring a peer dead at the
// device layer. After FailPeer(dst), the endpoint silently discards
// traffic addressed to dst and stops retransmission timers for it, so a
// survivor communicator (Comm.Shrink in package mpi) is not poisoned by
// background probes to the dead rank exhausting the stream's retry
// budget.
type PeerFailer interface {
	// FailPeer marks world rank dst as failed for this endpoint.
	FailPeer(dst int)
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrKilled is returned by operations on an endpoint whose rank was
// killed by fault injection (simnet's KillRank, udpnet's Kill). It is
// how a killed rank's own program observes its death: every subsequent
// device call fails with it.
var ErrKilled = errors.New("transport: endpoint killed (fault injection)")
