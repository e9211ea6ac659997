// Package ethernet models a Fast Ethernet data-link layer for the
// discrete-event simulator: frames with realistic wire timing, NICs with
// transmit queues and multicast filtering, a repeater hub implementing
// CSMA/CD (carrier sense, collision detection, jam, binary exponential
// backoff) and a store-and-forward switch with MAC learning, per-port
// egress queues and IGMP snooping.
//
// The model corresponds to the paper's testbed: a 3Com SuperStack II hub
// and an HP ProCurve managed switch, both 100 Mbps.
package ethernet

import (
	"fmt"

	"repro/internal/sim"
)

// MAC is a 48-bit medium access control address stored in the low bits of
// a uint64. Bit 40 (the I/G bit of the first octet on the wire, here kept
// in a fixed position for simplicity) marks group (multicast) addresses.
type MAC uint64

const (
	// multicastBit marks group addresses (the I/G bit).
	multicastBit MAC = 1 << 40
	// Broadcast is the all-ones broadcast address.
	Broadcast MAC = (1 << 48) - 1
)

// UnicastMAC returns the station address for endpoint id (locally
// administered, unicast).
func UnicastMAC(id int) MAC {
	return MAC(0x0200_0000_0000) | MAC(uint32(id))
}

// GroupMAC returns the multicast MAC for group g, mirroring the
// 01:00:5e:… mapping used for IP multicast.
func GroupMAC(g uint32) MAC {
	return multicastBit | MAC(0x0000_5e00_0000) | MAC(g&0x7fffff)
}

// IsMulticast reports whether m is a group address (broadcast included).
func (m MAC) IsMulticast() bool { return m&multicastBit != 0 || m == Broadcast }

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

func (m MAC) String() string {
	if m.IsBroadcast() {
		return "ff:ff:ff:ff:ff:ff"
	}
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// FrameKind labels the protocol purpose of a frame so instrumentation can
// count data frames and scout frames separately, as the paper's analysis
// does. The data-link layer does not interpret it.
type FrameKind uint8

const (
	KindUnknown FrameKind = iota
	KindData              // MPI payload fragment
	KindScout             // synchronization scout (no data)
	KindAck               // acknowledgment (PVM-style protocol)
	KindNack              // negative acknowledgment (retransmit request)
	KindControl           // IGMP-like membership report, barrier release, …
)

func (k FrameKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindScout:
		return "scout"
	case KindAck:
		return "ack"
	case KindNack:
		return "nack"
	case KindControl:
		return "control"
	default:
		return "unknown"
	}
}

// Frame is an Ethernet frame. Payload is the MAC client data (everything
// between the Ethertype and the FCS); the simulator accounts for padding
// to the minimum frame size in wire timing but does not materialize it.
type Frame struct {
	Src     MAC
	Dst     MAC
	Kind    FrameKind
	Payload []byte
}

// Ethernet framing constants (bytes).
const (
	PreambleBytes   = 8    // preamble + SFD
	HeaderBytes     = 14   // dst + src + ethertype
	FCSBytes        = 4    // frame check sequence
	InterFrameBytes = 12   // 96-bit interframe gap expressed in byte times
	MinPayload      = 46   // minimum client data (frames are padded up)
	MaxPayload      = 1500 // MTU
)

// WireBytes returns the number of byte times the frame occupies on the
// medium, including preamble, header, padding, FCS and the interframe gap.
func (f Frame) WireBytes() int {
	p := len(f.Payload)
	if p < MinPayload {
		p = MinPayload
	}
	return PreambleBytes + HeaderBytes + p + FCSBytes + InterFrameBytes
}

// Params holds the physical and device constants of the modeled network.
type Params struct {
	// RateBps is the link bit rate (100 Mbps Fast Ethernet by default).
	RateBps int64
	// PropDelay is the one-way propagation delay of a segment. It also
	// serves as the CSMA/CD collision window: a station that begins
	// transmitting within PropDelay of another cannot yet have sensed the
	// carrier, so the transmissions collide.
	PropDelay sim.Duration
	// SlotTime is the CSMA/CD backoff quantum (512 bit times).
	SlotTime sim.Duration
	// JamTime is how long the medium stays unusable after a collision.
	JamTime sim.Duration
	// MaxBackoffExp caps the binary exponential backoff exponent (BEB
	// truncation, 10 in IEEE 802.3).
	MaxBackoffExp int
	// MaxAttempts is the attempt limit before a frame is dropped (16).
	MaxAttempts int
	// SwitchLatency is the switch's forwarding decision time, added on
	// top of the inherent store-and-forward serialization delay.
	SwitchLatency sim.Duration
	// SwitchQueueCap bounds each egress port queue, in frames (a frame
	// bound for a full one waits at ingress, its source PAUSEd).
	SwitchQueueCap int
}

// DefaultParams returns constants for the paper's 100 Mbps testbed.
func DefaultParams() Params {
	return Params{
		RateBps:        100_000_000,
		PropDelay:      500 * sim.Nanosecond,
		SlotTime:       5120 * sim.Nanosecond, // 512 bit times at 100 Mbps
		JamTime:        3200 * sim.Nanosecond,
		MaxBackoffExp:  10,
		MaxAttempts:    16,
		SwitchLatency:  12 * sim.Microsecond,
		SwitchQueueCap: 64,
	}
}

// TxTime returns how long the frame occupies the medium.
func (p Params) TxTime(f Frame) sim.Duration {
	bits := int64(f.WireBytes()) * 8
	return sim.Duration(bits * 1_000_000_000 / p.RateBps)
}

// Link is a medium a NIC can be attached to: the shared bus of a hub or a
// dedicated full-duplex switch port.
type Link interface {
	// transmit is called by an attached NIC to start sending its head
	// frame. The link eventually calls exactly one of txDone or
	// txCollision on the NIC.
	transmit(n *NIC, f Frame)
	// notifyJoin informs the medium of a multicast membership change so
	// snooping switches can maintain their group tables.
	notifyJoin(n *NIC, g MAC, joined bool)
}
