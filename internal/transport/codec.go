package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Wire format shared by the simulated and the real UDP transports. Every
// fragment carries a fixed header followed by a slice of the message
// payload:
//
//	offset size field
//	0      4    magic 0x4D50494D ("MPIM")
//	4      1    version (2)
//	5      1    kind
//	6      1    class
//	7      1    flags (bit 0: reliable, bit 1: stream, bit 2: stream control,
//	            bit 3: repair)
//	8      4    comm
//	12     4    src world rank
//	16     4    tag (two's complement)
//	20     4    seq
//	24     8    message id (unique per sender)
//	32     2    fragment index
//	34     2    fragment count
//	36     4    total payload length
//	40     4    fragment byte offset
//	44     4    stream sequence (reliable point-to-point stream, 0 = none)
//	48     -    fragment payload
//
// Version 2 added the stream sequence field for the windowed reliable
// point-to-point protocol of package reliab: a fragment with the stream
// flag set belongs to the per-peer sequence-numbered stream identified by
// (src, dst) and is delivered exactly once, in stream handling, below the
// application receive path. A fragment with the stream-control flag set
// is a protocol frame of that layer (cumulative ACK or ack-soliciting
// probe) and never surfaces as a message. The repair flag took a free bit
// of the flag byte, so the version did not move: it marks a fragment that
// was put on the wire a second time — a stream retransmission, a
// multicast repair — which tells everyone who hears it that the network
// is losing frames (reliab.Driver.LossSeen).
const (
	HeaderLen   = 48
	wireMagic   = 0x4D50494D
	wireVersion = 2

	flagReliable = 1 << 0

	// FlagStream marks a fragment of a reliable point-to-point stream
	// (Fragment.Stream carries the per-peer sequence number).
	FlagStream = 1 << 1
	// FlagStreamCtl marks a stream protocol frame (ACK or probe); the
	// payload is a reliab control body, not message data.
	FlagStreamCtl = 1 << 2
	// FlagRepair marks a retransmission: never set on a fragment's first
	// transmission.
	FlagRepair = 1 << 3
)

// Fragment is one wire unit of a (possibly multi-fragment) message.
type Fragment struct {
	Msg      Message // payload holds only this fragment's slice
	MsgID    uint64
	Index    uint16
	Count    uint16
	TotalLen uint32
	Offset   uint32 // byte offset of this fragment within the message
	// Stream is the per-peer reliable-stream sequence number (0 when the
	// fragment does not belong to a stream; see package reliab).
	Stream uint32
	// Ctl marks a stream protocol frame (ACK/probe) whose payload is a
	// reliab control body rather than message data.
	Ctl bool
	// Repair marks a retransmission (FlagRepair). Senders set it on the
	// copy handed to the wire, never on fragments they keep.
	Repair bool
}

// ErrBadPacket reports an undecodable wire packet.
var ErrBadPacket = errors.New("transport: bad packet")

// EncodeFragment serializes f into a fresh buffer.
func EncodeFragment(f Fragment) []byte {
	return AppendFragment(nil, f)
}

// AppendFragment serializes f, appending the wire packet to dst and
// returning the extended slice — the encode-into form for hot paths that
// reuse a scratch buffer (append to dst[:0]) instead of allocating per
// frame.
func AppendFragment(dst []byte, f Fragment) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, HeaderLen+len(f.Msg.Payload))...)
	b := dst[n:]
	binary.BigEndian.PutUint32(b[0:4], wireMagic)
	b[4] = wireVersion
	b[5] = byte(f.Msg.Kind)
	b[6] = byte(f.Msg.Class)
	if f.Msg.Reliable {
		b[7] |= flagReliable
	}
	if f.Stream != 0 {
		b[7] |= FlagStream
	}
	if f.Ctl {
		b[7] |= FlagStreamCtl
	}
	if f.Repair {
		b[7] |= FlagRepair
	}
	binary.BigEndian.PutUint32(b[8:12], f.Msg.Comm)
	binary.BigEndian.PutUint32(b[12:16], uint32(int32(f.Msg.Src)))
	binary.BigEndian.PutUint32(b[16:20], uint32(f.Msg.Tag))
	binary.BigEndian.PutUint32(b[20:24], f.Msg.Seq)
	binary.BigEndian.PutUint64(b[24:32], f.MsgID)
	binary.BigEndian.PutUint16(b[32:34], f.Index)
	binary.BigEndian.PutUint16(b[34:36], f.Count)
	binary.BigEndian.PutUint32(b[36:40], f.TotalLen)
	binary.BigEndian.PutUint32(b[40:44], f.Offset)
	binary.BigEndian.PutUint32(b[44:48], f.Stream)
	copy(b[HeaderLen:], f.Msg.Payload)
	return dst
}

// DecodeFragment parses a wire packet. The returned fragment's payload
// aliases b.
func DecodeFragment(b []byte) (Fragment, error) {
	var f Fragment
	if len(b) < HeaderLen {
		return f, fmt.Errorf("%w: %d bytes", ErrBadPacket, len(b))
	}
	if binary.BigEndian.Uint32(b[0:4]) != wireMagic {
		return f, fmt.Errorf("%w: bad magic", ErrBadPacket)
	}
	if b[4] != wireVersion {
		return f, fmt.Errorf("%w: version %d", ErrBadPacket, b[4])
	}
	f.Msg.Kind = Kind(b[5])
	f.Msg.Class = Class(b[6])
	f.Msg.Reliable = b[7]&flagReliable != 0
	f.Ctl = b[7]&FlagStreamCtl != 0
	f.Repair = b[7]&FlagRepair != 0
	f.Msg.Comm = binary.BigEndian.Uint32(b[8:12])
	f.Msg.Src = int(int32(binary.BigEndian.Uint32(b[12:16])))
	f.Msg.Tag = int32(binary.BigEndian.Uint32(b[16:20]))
	f.Msg.Seq = binary.BigEndian.Uint32(b[20:24])
	f.MsgID = binary.BigEndian.Uint64(b[24:32])
	f.Index = binary.BigEndian.Uint16(b[32:34])
	f.Count = binary.BigEndian.Uint16(b[34:36])
	f.TotalLen = binary.BigEndian.Uint32(b[36:40])
	f.Offset = binary.BigEndian.Uint32(b[40:44])
	f.Stream = binary.BigEndian.Uint32(b[44:48])
	f.Msg.Payload = b[HeaderLen:]
	if f.Count == 0 || f.Index >= f.Count {
		return f, fmt.Errorf("%w: fragment %d/%d", ErrBadPacket, f.Index, f.Count)
	}
	if (b[7]&FlagStream != 0) != (f.Stream != 0) {
		return f, fmt.Errorf("%w: stream flag disagrees with sequence %d", ErrBadPacket, f.Stream)
	}
	if int(f.Offset)+len(f.Msg.Payload) > int(f.TotalLen) {
		return f, fmt.Errorf("%w: fragment overflows message", ErrBadPacket)
	}
	return f, nil
}

// Split cuts m into fragments whose payloads are at most maxPayload bytes
// each, stamping them with msgID. A zero-length message yields a single
// empty fragment.
func Split(m Message, msgID uint64, maxPayload int) []Fragment {
	if maxPayload <= 0 {
		panic("transport: non-positive fragment size")
	}
	total := len(m.Payload)
	count := (total + maxPayload - 1) / maxPayload
	if count == 0 {
		count = 1
	}
	if count > 0xFFFF {
		panic(fmt.Sprintf("transport: message needs %d fragments (max 65535)", count))
	}
	frags := make([]Fragment, 0, count)
	for i := 0; i < count; i++ {
		lo := i * maxPayload
		hi := lo + maxPayload
		if hi > total {
			hi = total
		}
		fm := m
		fm.Payload = m.Payload[lo:hi]
		frags = append(frags, Fragment{
			Msg:      fm,
			MsgID:    msgID,
			Index:    uint16(i),
			Count:    uint16(count),
			TotalLen: uint32(total),
			Offset:   uint32(lo),
		})
	}
	return frags
}

// RepairFragments returns the fragments of m, as Split cuts them under
// msgID, that a repair puts back on the wire: the ones frags names, or all
// of them when frags is nil. Each is flagged Repair — this is the one
// place a multicast retransmission is marked, as reliab.Driver is for a
// stream's.
func RepairFragments(m Message, msgID uint64, maxPayload int, frags []int) ([]Fragment, error) {
	send := Split(m, msgID, maxPayload)
	if frags != nil {
		all := send
		send = make([]Fragment, 0, len(frags))
		for _, idx := range frags {
			if idx < 0 || idx >= len(all) {
				return nil, fmt.Errorf("transport: repair names fragment %d of %d", idx, len(all))
			}
			send = append(send, all[idx])
		}
	}
	for i := range send {
		send[i].Repair = true
	}
	return send, nil
}

// SliceGroup derives the multicast group id of one destination slice of
// a communicator: the group the slice-granular collectives (sliced
// scatter, sliced alltoall rounds) address the fragments of slice to, so
// that only the endpoint owning the slice subscribes and every other
// endpoint's NIC drops the foreign fragments without delivering them.
// The derivation is a pure function of (ctx, slice), so every member
// computes the same id without communication, exactly like the
// communicator context derivation in package mpi.
func SliceGroup(ctx uint32, slice int) uint32 {
	h := fnv.New32a()
	var b [9]byte
	b[0] = 0x5C // domain separator: slice groups never equal a raw context
	binary.BigEndian.PutUint32(b[1:5], ctx)
	binary.BigEndian.PutUint32(b[5:9], uint32(slice))
	h.Write(b[:])
	id := h.Sum32()
	if id <= 1 { // keep clear of the world context
		id += 2
	}
	return id
}

// SegmentGroup derives the multicast group id of one topology segment of
// a communicator: the group the two-level collectives address
// segment-local protocol multicasts (release gates, result fan-out) to,
// so that only the endpoints placed on that segment subscribe and the
// frames never cross the shared uplink — the switch has no member port
// to forward them to, and segment neighbours hear the sender's own
// transmission directly. Like SliceGroup, the derivation is a pure
// function of (ctx, seg) with its own domain separator, so every member
// computes the same id without communication and a segment group can
// never equal a raw context or a slice group by construction of the
// input, only by hash collision (which the per-message tag space
// disambiguates).
func SegmentGroup(ctx uint32, seg int) uint32 {
	h := fnv.New32a()
	var b [9]byte
	b[0] = 0x5E // domain separator: segment groups
	binary.BigEndian.PutUint32(b[1:5], ctx)
	binary.BigEndian.PutUint32(b[5:9], uint32(seg))
	h.Write(b[:])
	id := h.Sum32()
	if id <= 1 { // keep clear of the world context
		id += 2
	}
	return id
}

// Selective-repair request payload: a NACK that names the fragments the
// receiver is missing, so the sender retransmits O(missing) frames under
// the same message id instead of re-multicasting the whole message.
//
//	offset size field
//	0      8    msgID of the partially received message (0 = none)
//	8      2    number of missing fragment indexes
//	10     2·n  missing fragment indexes
//
// An empty index list (or a zero msgID) requests a full resend: the
// receiver saw nothing of the message it can name.
const repairReqHeader = 10

// EncodeRepairReq serializes a selective-repair request.
func EncodeRepairReq(msgID uint64, missing []int) []byte {
	if len(missing) > 0xFFFF {
		missing = missing[:0xFFFF]
	}
	b := make([]byte, repairReqHeader+2*len(missing))
	binary.BigEndian.PutUint64(b[0:8], msgID)
	binary.BigEndian.PutUint16(b[8:10], uint16(len(missing)))
	for i, idx := range missing {
		binary.BigEndian.PutUint16(b[repairReqHeader+2*i:], uint16(idx))
	}
	return b
}

// DecodeRepairReq parses a selective-repair request. A nil or empty
// payload decodes as a full-resend request (msgID 0, no indexes).
func DecodeRepairReq(b []byte) (msgID uint64, missing []int, err error) {
	if len(b) == 0 {
		return 0, nil, nil
	}
	if len(b) < repairReqHeader {
		return 0, nil, fmt.Errorf("%w: repair request %d bytes", ErrBadPacket, len(b))
	}
	msgID = binary.BigEndian.Uint64(b[0:8])
	n := int(binary.BigEndian.Uint16(b[8:10]))
	if len(b) < repairReqHeader+2*n {
		return 0, nil, fmt.Errorf("%w: repair request names %d indexes in %d bytes", ErrBadPacket, n, len(b))
	}
	for i := 0; i < n; i++ {
		missing = append(missing, int(binary.BigEndian.Uint16(b[repairReqHeader+2*i:])))
	}
	return msgID, missing, nil
}

// Reassembler collects fragments into complete messages. Duplicate
// fragments (retransmissions) are tolerated, including selective repairs
// of an already completed multicast: a per-source watermark of completed
// multi-fragment multicast ids suppresses them, so a repair multicast
// under the original message id cannot resurrect ghost partial state at
// receivers that already delivered the message.
//
// The watermark relies on a protocol-level invariant, not a transport
// one: message ids are monotonic per sender, and the collective
// protocols never start a sender's next multicast until every receiver
// has confirmed (or been scout-gated past) the previous one, so a
// fragment at or below the watermark with no partial state can only be
// a stray repair. An ungated protocol that interleaves a sender's
// multicasts across groups could see a newer id complete first on a
// transport without per-source FIFO delivery (udpnet reads each group's
// socket on its own goroutine) and must not rely on this suppression.
// The zero value is ready to use.
type Reassembler struct {
	pending   map[reasmKey]*reasmState
	mcastDone map[int]uint64 // per-src highest completed multi-fragment mcast id
	newest    map[int]uint64 // per-src newest partial multicast id (PendingFrom)
}

type reasmKey struct {
	src   int
	msgID uint64
}

type reasmState struct {
	buf         []byte
	got         []bool
	received    int
	arrived     int // fragments that reached the message, duplicates included
	count       int
	template    Message
	first, last int64 // arrival times of the first and the latest new fragment
}

// Arrivals is what a reassembler saw of one partial message arriving: how
// many fragments it holds and when the first and the latest of them came,
// on the owner's clock. A receiver-driven repair protocol reads the wire's
// own pace from it: a message whose fragments come every Gap and that has
// been silent for several of them is not in flight any more.
type Arrivals struct {
	Got         int
	First, Last int64
}

// Gap is the mean time between the arrivals seen, or 0 while fewer than
// two fragments (or no clock) make one measurable.
func (a Arrivals) Gap() int64 {
	if a.Got < 2 {
		return 0
	}
	return (a.Last - a.First) / int64(a.Got-1)
}

// Add incorporates one fragment. If it completes a message, the message
// is returned with done=true. The returned payload never aliases the
// fragment buffer. A partial's arrival times read zero (see Accept).
func (r *Reassembler) Add(f Fragment) (m Message, done bool, err error) {
	m, _, done, err = r.Accept(f, 0)
	return m, done, err
}

// Accept is Add for an owner with a clock: at, the owner's clock when f
// arrived, stamps a partial multicast's Arrivals, and arrived reports how
// many fragments reached the message f completed, duplicates included
// (0 unless done). A stray repair of a completed multicast leaves no
// state and is counted nowhere.
func (r *Reassembler) Accept(f Fragment, at int64) (m Message, arrived int, done bool, err error) {
	if f.Count == 1 {
		m = f.Msg
		m.Payload = append([]byte(nil), f.Msg.Payload...)
		return m, 1, true, nil
	}
	if r.pending == nil {
		r.pending = make(map[reasmKey]*reasmState)
	}
	key := reasmKey{src: f.Msg.Src, msgID: f.MsgID}
	st := r.pending[key]
	if st == nil {
		if f.Msg.Kind == Mcast && f.MsgID <= r.mcastDone[f.Msg.Src] {
			return m, 0, false, nil // stray repair of a completed multicast
		}
		st = &reasmState{
			buf:      make([]byte, f.TotalLen),
			got:      make([]bool, f.Count),
			count:    int(f.Count),
			template: f.Msg,
		}
		r.pending[key] = st
		if f.Msg.Kind == Mcast {
			if r.newest == nil {
				r.newest = make(map[int]uint64)
			}
			if id, ok := r.newest[key.src]; !ok || key.msgID > id {
				r.newest[key.src] = key.msgID
			}
		}
	}
	if int(f.Count) != st.count || int(f.TotalLen) != len(st.buf) {
		return m, 0, false, fmt.Errorf("%w: inconsistent fragments for message %d/%d", ErrBadPacket, f.Msg.Src, f.MsgID)
	}
	st.arrived++
	if st.got[f.Index] {
		return m, 0, false, nil // duplicate (retransmission)
	}
	copy(st.buf[f.Offset:], f.Msg.Payload)
	st.got[f.Index] = true
	st.received++
	if st.received < st.count {
		st.last = at
		if st.received == 1 {
			st.first = at
		}
		return m, 0, false, nil
	}
	delete(r.pending, key)
	if f.Msg.Kind == Mcast {
		if r.newest[key.src] == key.msgID {
			r.findNewest(key.src)
		}
		if r.mcastDone == nil {
			r.mcastDone = make(map[int]uint64)
		}
		if f.MsgID > r.mcastDone[f.Msg.Src] {
			r.mcastDone[f.Msg.Src] = f.MsgID
		}
	}
	m = st.template
	m.Payload = st.buf
	return m, st.arrived, true, nil
}

// Pending reports the number of partially reassembled messages.
func (r *Reassembler) Pending() int { return len(r.pending) }

// PendingFrom returns the newest partially reassembled *multicast* from
// world rank src: its message id, the sorted missing fragment indexes and
// how what it holds arrived. ok=false means nothing from src is pending.
// Receiver-driven multicast repair protocols use it to name exactly the
// fragments a NACK should request, and to tell a message that stopped
// arriving from one still in flight; the newest partial is the one
// belonging to the current protocol round (older ones are stragglers of
// abandoned messages).
// Point-to-point partials are excluded: with the reliable stream layer a
// p2p message from the same source can legitimately sit half-reassembled
// (a lost stream fragment awaiting retransmission), and naming its id in
// a multicast NACK would request repairs for the wrong message.
func (r *Reassembler) PendingFrom(src int) (msgID uint64, missing []int, seen Arrivals, ok bool) {
	msgID, ok = r.newest[src]
	if !ok {
		return 0, nil, Arrivals{}, false
	}
	st := r.pending[reasmKey{src: src, msgID: msgID}]
	seen = Arrivals{Got: st.received, First: st.first, Last: st.last}
	return msgID, r.Missing(src, msgID), seen, true
}

// findNewest recomputes src's newest partial multicast once the one
// PendingFrom reported completed: a scan per completed message, where
// PendingFrom, which a repairing receiver calls for every message it
// awaits each time it looks, would scan on every call.
func (r *Reassembler) findNewest(src int) {
	delete(r.newest, src)
	for key, st := range r.pending {
		if id, ok := r.newest[src]; key.src == src && st.template.Kind == Mcast && (!ok || key.msgID > id) {
			r.newest[src] = key.msgID
		}
	}
}

// Missing returns the indexes of fragments not yet received for the
// message identified by (src, msgID). A nil slice means the message is
// unknown (never seen or already completed).
func (r *Reassembler) Missing(src int, msgID uint64) []int {
	st := r.pending[reasmKey{src: src, msgID: msgID}]
	if st == nil {
		return nil
	}
	var miss []int
	for i, ok := range st.got {
		if !ok {
			miss = append(miss, i)
		}
	}
	return miss
}
