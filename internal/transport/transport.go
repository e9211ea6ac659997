// Package transport defines the device-layer abstraction the MPI library
// runs on — the analogue of MPICH's Abstract Device Interface in the
// paper's Fig. 1 — plus the shared wire format, fragmentation helpers and
// an in-process reference implementation.
//
// A device is an Endpoint — point-to-point and multicast delivery, a
// timed receive, a clock — and a device with a real wire is also a Wire.
// Three transports implement them:
//
//   - MemNet (this package): goroutines and channels, for unit tests and
//     fast in-process runs. An Endpoint only: no MTU, no loss.
//   - simnet: the discrete-event Fast Ethernet simulator used to
//     regenerate the paper's figures. An Endpoint and a Wire.
//   - udpnet: real UDP sockets with genuine IP multicast via package net.
//     An Endpoint and a Wire.
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

// Endpoint is one rank's attachment to the network. Every device
// multicasts: the paper's collectives bypass the point-to-point layers
// and talk to the device's multicast directly. All methods are called
// from the owning rank's goroutine (or simulated process) only.
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
	// RecvTimeout behaves like Recv but gives up after timeout
	// nanoseconds (on the endpoint's clock), returning ok=false.
	RecvTimeout(timeout int64) (m Message, ok bool, err error)
	// Join subscribes the endpoint to group. Messages multicast to a
	// group are delivered to every member except the sender.
	Join(group uint32) error
	// Leave unsubscribes from group.
	Leave(group uint32) error
	// Multicast sends m to every member of group in one operation.
	Multicast(group uint32, m Message) error
	// Now returns monotonic nanoseconds on the endpoint's clock —
	// virtual time for the simulator, wall time otherwise. Latency
	// measurements must use this clock.
	Now() int64
	// Close shuts the endpoint down.
	Close() error
}

// Wire is the optional capability of a device with a real wire — an MTU,
// loss, peers that die: simnet and udpnet. The in-process channel
// transport has none and does not implement it; package mpi then sends
// plainly, repairs by resending whole messages and never probes.
type Wire interface {
	// SendReliable transmits m to world rank dst over the per-peer
	// windowed stream of package reliab, which retransmits whatever the
	// receiver proves lost. It may block (or pace, on the virtual clock)
	// while the window is full: that backpressure, not a silent drop,
	// bounds what a fast sender can converge on one receiver.
	SendReliable(dst int, m Message) error
	// MaxFragPayload returns the message payload bytes per wire frame.
	MaxFragPayload() int
	// LastMulticastID returns the device message id of this endpoint's
	// most recent multicast (0 before the first), so later repair
	// requests can be matched against it.
	LastMulticastID() uint64
	// RepairMulticast retransmits the named fragments (nil = all) of m to
	// group under the original message id, completing the receivers'
	// partial reassembly; m must carry the original payload. Every
	// fragment is flagged Fragment.Repair: the group hears that the
	// network lost something.
	RepairMulticast(group uint32, m Message, msgID uint64, frags []int) error
	// PendingFrom reports the newest partially reassembled multicast
	// from world rank src: its message id, its missing fragment indexes
	// and when what it holds arrived, on the endpoint's clock. ok=false
	// means nothing from src is pending.
	PendingFrom(src int) (msgID uint64, missing []int, seen Arrivals, ok bool)
	// LastLoss returns when the endpoint last saw evidence that the
	// network is losing frames — a repair-flagged fragment arrived, an
	// ack called for a retransmission, a duplicate came in
	// (reliab.Driver.LossSeen) — on the endpoint's clock, or 0 if it
	// never has.
	LastLoss() int64
	// PostRecvs posts n standing receive descriptors. Under the paper's
	// strict-posted discipline a multicast frame that finds none posted
	// is lost, so a collective in which every rank multicasts at once
	// posts one per multicast it expects. A device that never drops for
	// want of a descriptor implements it as a no-op.
	PostRecvs(n int)
	// UnpostRecvs retires n previously posted descriptors.
	UnpostRecvs(n int)
	// Ping sends one stream-layer probe to dst and reports whether any
	// stream acknowledgment came back within timeout nanoseconds. It is
	// answered at interrupt level, so a rank that is merely computing
	// answers and a dead one never does. Ping(self) is false. The failure
	// detector in package mpi is built on it.
	Ping(dst int, timeout int64) bool
	// FailPeer declares world rank dst dead: traffic to it is discarded
	// and its retransmission timers stop, so background probes to a dead
	// rank cannot exhaust the stream's retry budget after Comm.Shrink.
	FailPeer(dst int)
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrKilled is returned by operations on an endpoint whose rank was
// killed by fault injection (simnet's KillRank, udpnet's Kill). It is
// how a killed rank's own program observes its death: every subsequent
// device call fails with it.
var ErrKilled = errors.New("transport: endpoint killed (fault injection)")
