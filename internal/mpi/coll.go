package mpi

import (
	"fmt"
	"slices"

	"repro/internal/transport"
)

// Collective protocol messages travel in a reserved tag space below zero
// so they can never match a user receive. The per-communicator collective
// sequence number rides in the transport Seq field, which is what keeps
// back-to-back collectives separate and makes the safe-program ordering
// argument of the paper's §4 hold.
const collTagBase int32 = -1000

// CollCtx is the per-operation handle algorithm implementations use. It
// is created by BeginColl at the start of each collective call; all
// messages sent through it carry the operation's sequence number.
//
// CollCtx is the "bypass" interface of the paper's Fig. 1: Send/Recv go
// through the ordinary point-to-point device path, while the multicast
// calls (Multicast, RecvMulticast, RecvMulticastTimeout, MulticastRepair,
// and RecvSpan, which also takes point-to-point traffic) reach the
// device's multicast directly, each addressed by a Scope.
type CollCtx struct {
	c   *Comm
	seq uint32
}

// BeginColl opens a collective operation and advances the communicator's
// collective sequence number. Every rank must call collectives in the
// same order (a "safe" MPI program, as the paper requires).
//
// Opening an operation also garbage-collects stragglers of *finished*
// operations on this communicator from the unexpected queue (e.g. late
// NACKs that raced a reliability protocol's completion): a protocol
// message with a lower sequence number can never match again because
// collective receives always match the current operation exactly.
func (c *Comm) BeginColl() CollCtx {
	c.collSeq++
	kept := c.rt.unexpected[:0]
	for _, m := range c.rt.unexpected {
		stale := m.Kind == transport.P2P && m.Comm == c.ctx &&
			m.Tag <= collTagBase && m.Seq < c.collSeq
		if !stale {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(c.rt.unexpected); i++ {
		c.rt.unexpected[i] = transport.Message{}
	}
	c.rt.unexpected = kept
	return CollCtx{c: c, seq: c.collSeq}
}

// Comm returns the communicator the operation runs on.
func (cc CollCtx) Comm() *Comm { return cc.c }

// Seq returns the operation's sequence number.
func (cc CollCtx) Seq() uint32 { return cc.seq }

// Send transmits a collective protocol message to communicator rank dst.
// phase distinguishes message roles within one operation. reliable marks
// traffic that would ride TCP in the paper's MPICH baseline; scouts and
// other bypass traffic pass false for UDP.
func (cc CollCtx) Send(dst, phase int, payload []byte, class transport.Class, reliable bool) error {
	if dst < 0 || dst >= cc.c.Size() {
		return fmt.Errorf("%w: collective send to %d (size %d)", ErrInvalidRank, dst, cc.c.Size())
	}
	cc.traceSend(class, len(payload))
	return cc.c.rt.sendP2P(cc.c.group[dst], transport.Message{
		Comm:     cc.c.ctx,
		Tag:      collTagBase - int32(phase),
		Seq:      cc.seq,
		Class:    class,
		Reliable: reliable,
		Payload:  payload,
	})
}

// Recv blocks for a collective protocol message from communicator rank
// src (or AnySource) in the given phase of this operation.
func (cc CollCtx) Recv(src, phase int) (transport.Message, error) {
	m, _, err := cc.RecvTimeout(src, phase, -1)
	return m, err
}

// SrcRank translates the world rank in a received message to a
// communicator rank.
func (cc CollCtx) SrcRank(m transport.Message) int { return cc.c.inverse[m.Src] }

// CollPhase returns the phase a collective protocol message was sent in
// (CollCtx.Send), and false for any other message. Frame counters use it
// to attribute one operation's point-to-point traffic to its phases.
func CollPhase(m transport.Message) (phase int, ok bool) {
	if m.Kind != transport.P2P || m.Tag > collTagBase {
		return 0, false
	}
	return int(collTagBase - m.Tag), true
}

// Scope names the receivers of one multicast. The zero value, Whole,
// is the communicator's own group. Slice(r) is the group only rank r's
// endpoint subscribes to, so every other NIC drops the fragments
// undelivered — the fragment-granular addressing of the sliced
// collectives. Seg(s) is the group of the ranks placed on topology
// segment s, so the frames never cross the shared uplink — the two-level
// collectives' segment-local traffic (super-slice and alltoall blocks);
// it needs a communicator with a topology (Comm.Topo != nil). A rank
// subscribes to Whole, its own slice and its own segment, which are the
// scopes it can receive on. Scopes are comparable.
type Scope struct {
	kind scopeKind
	idx  int
}

type scopeKind uint8

const (
	scopeWhole scopeKind = iota
	scopeSlice
	scopeSeg
)

// Whole addresses every rank of the communicator.
var Whole = Scope{}

// Slice addresses the slice group of communicator rank rank.
func Slice(rank int) Scope { return Scope{scopeSlice, rank} }

// Seg addresses the segment group of topology segment seg.
func Seg(seg int) Scope { return Scope{scopeSeg, seg} }

// tag is the transport tag that keeps the scopes apart on the wire even
// if two derived group ids were to collide on a real network: Whole is
// exactly 0, slices are strictly positive, segments strictly negative.
// Slice tags share the positive space with user point-to-point traffic,
// but multicast and P2P kinds never cross-match.
func (s Scope) tag() int32 {
	switch s.kind {
	case scopeSlice:
		return int32(s.idx) + 1
	case scopeSeg:
		return -(int32(s.idx) + 1)
	}
	return 0
}

// resolve is the one place a scope becomes an address: the device group
// to transmit to, the tag receives match on, or why there is neither.
func (cc CollCtx) resolve(s Scope) (group uint32, tag int32, err error) {
	c := cc.c
	group = c.ctx
	switch s.kind {
	case scopeSlice:
		if s.idx < 0 || s.idx >= c.Size() {
			return 0, 0, fmt.Errorf("%w: multicast slice %d (size %d)", ErrInvalidRank, s.idx, c.Size())
		}
		group = transport.SliceGroup(c.ctx, s.idx)
	case scopeSeg:
		if c.topoMap == nil || s.idx < 0 || s.idx >= c.topoMap.Segments() {
			return 0, 0, fmt.Errorf("%w: multicast segment %d", ErrInvalidRank, s.idx)
		}
		group = transport.SegmentGroup(c.ctx, s.idx)
	}
	return group, s.tag(), nil
}

// mcastMessage is this operation's multicast envelope under tag.
func (cc CollCtx) mcastMessage(tag int32, payload []byte, class transport.Class) transport.Message {
	return transport.Message{Comm: cc.c.ctx, Tag: tag, Seq: cc.seq, Class: class, Payload: payload}
}

// mcastMatch matches this operation's multicast under tag.
func (cc CollCtx) mcastMatch(tag int32) func(m *transport.Message) bool {
	return func(m *transport.Message) bool {
		return m.Kind == transport.Mcast && m.Comm == cc.c.ctx && m.Seq == cc.seq && m.Tag == tag
	}
}

// Multicast sends payload to every member of the scope's group in a
// single device operation. The sender does not receive its own message.
func (cc CollCtx) Multicast(s Scope, payload []byte, class transport.Class) error {
	group, tag, err := cc.resolve(s)
	if err != nil {
		return err
	}
	return cc.c.rt.ep.Multicast(group, cc.mcastMessage(tag, payload, class))
}

// RecvMulticast blocks for this operation's multicast to the scope (a
// multicast to any other scope never matches it).
func (cc CollCtx) RecvMulticast(s Scope) (transport.Message, error) {
	_, tag, err := cc.resolve(s)
	if err != nil {
		return transport.Message{}, err
	}
	return cc.c.recvMatchFT(cc.mcastMatch(tag))
}

// RecvMulticastTimeout is RecvMulticast with a timeout in nanoseconds on
// the device clock; ok=false reports expiry. Receiver-initiated
// reliability protocols use it to detect a missed multicast.
func (cc CollCtx) RecvMulticastTimeout(s Scope, timeout int64) (transport.Message, bool, error) {
	_, tag, err := cc.resolve(s)
	if err != nil {
		return transport.Message{}, false, err
	}
	return cc.c.rt.recvMatchTimeout(cc.mcastMatch(tag), timeout)
}

// LastMulticastID returns the device message id of this rank's most
// recent multicast, or 0 on a device without a wire. Senders capture it
// after each data multicast so selective repair requests can be matched
// to the round's message.
func (cc CollCtx) LastMulticastID() uint64 {
	if w := cc.c.rt.wire; w != nil {
		return w.LastMulticastID()
	}
	return 0
}

// MissingFrom reports the newest partially reassembled multicast from
// communicator rank src at this rank's device: its message id, the
// missing fragment indexes and when what it holds arrived, on the device
// clock. ok=false when nothing is pending or the device has no wire (so
// nothing is ever partially reassembled).
func (cc CollCtx) MissingFrom(src int) (msgID uint64, missing []int, seen transport.Arrivals, ok bool) {
	w := cc.c.rt.wire
	if w == nil || src < 0 || src >= cc.c.Size() {
		return 0, nil, transport.Arrivals{}, false
	}
	return w.PendingFrom(cc.c.group[src])
}

// LastLoss returns when this rank's device last saw evidence that the
// network is losing frames (transport.Wire.LastLoss), on the device
// clock, or 0 if it never has or has no wire.
func (cc CollCtx) LastLoss() int64 {
	if w := cc.c.rt.wire; w != nil {
		return w.LastLoss()
	}
	return 0
}

// MulticastRepair retransmits the named fragments (nil = all) of this
// operation's earlier multicast to the scope under its original device
// message id. A device without a wire (or an unknown id, 0) sends a
// fresh whole-message multicast instead.
func (cc CollCtx) MulticastRepair(s Scope, payload []byte, class transport.Class, msgID uint64, frags []int) error {
	group, tag, err := cc.resolve(s)
	if err != nil {
		return err
	}
	cc.TraceEvent("repair.mcast", int64(len(frags)))
	m := cc.mcastMessage(tag, payload, class)
	if w := cc.c.rt.wire; w != nil && msgID != 0 {
		return w.RepairMulticast(group, m, msgID, frags)
	}
	return cc.c.rt.ep.Multicast(group, m)
}

// FragPayload returns the device's fragment payload size (message bytes
// per wire frame), or 0 on a device without a wire. Protocols scaling
// timeouts with a message's expected fragment count use it instead of
// guessing an MTU.
func (cc CollCtx) FragPayload() int {
	if w := cc.c.rt.wire; w != nil {
		return w.MaxFragPayload()
	}
	return 0
}

// RecvPhases blocks for a point-to-point protocol message of this
// operation in any of the given phases; the caller dispatches on Class.
// Server loops whose operation carries concurrent traffic in other
// phases name only the phases they serve, so a message of another phase
// stays queued for its own receive instead of being consumed and
// dropped.
func (cc CollCtx) RecvPhases(phases ...int) (transport.Message, error) {
	return cc.c.recvMatchFT(func(m *transport.Message) bool {
		return m.Kind == transport.P2P && m.Comm == cc.c.ctx && m.Seq == cc.seq &&
			slices.Contains(phases, int(collTagBase-m.Tag))
	})
}

// recvPhaseRange blocks for a point-to-point protocol message of this
// operation in any phase of [lo, hi] and returns the message together
// with the phase it arrived in. ReduceWalks runs its walks concurrently
// with the walk index encoded in the phase; this is its event pump —
// whichever walk's message lands next is the one that makes progress.
func (cc CollCtx) recvPhaseRange(lo, hi int) (transport.Message, int, error) {
	lowTag, highTag := collTagBase-int32(hi), collTagBase-int32(lo)
	m, err := cc.c.recvMatchFT(func(m *transport.Message) bool {
		return m.Kind == transport.P2P && m.Comm == cc.c.ctx && m.Seq == cc.seq &&
			m.Tag >= lowTag && m.Tag <= highTag
	})
	if err != nil {
		return m, 0, err
	}
	return m, int(collTagBase - m.Tag), nil
}

// RecvTimeout is Recv with a timeout in nanoseconds on the device clock;
// ok=false reports expiry. A negative timeout waits as Recv does, through
// the failure detector's sweeps.
func (cc CollCtx) RecvTimeout(src, phase int, timeout int64) (m transport.Message, ok bool, err error) {
	srcWorld := AnySource
	if src != AnySource {
		if src < 0 || src >= cc.c.Size() {
			return transport.Message{}, false, fmt.Errorf("%w: collective recv from %d (size %d)", ErrInvalidRank, src, cc.c.Size())
		}
		srcWorld = cc.c.group[src]
	}
	want := collTagBase - int32(phase)
	pred := func(m *transport.Message) bool {
		if m.Kind != transport.P2P || m.Comm != cc.c.ctx || m.Tag != want || m.Seq != cc.seq {
			return false
		}
		return srcWorld == AnySource || m.Src == srcWorld
	}
	if timeout >= 0 {
		return cc.c.rt.recvMatchTimeout(pred, timeout)
	}
	m, err = cc.c.recvMatchFT(pred)
	return m, err == nil, err
}

// RecvSpan blocks for the first message of a span of ops operations —
// this one and the ops-1 opened right after it — that is a multicast to
// Whole or to this rank's slice, or a point-to-point protocol message in
// any phase. It returns the message
// and the offset of its operation in the span. A repair loop that awaits
// several operations' multicasts while it serves requests for its own
// (core's repaired burst) waits on it for whichever comes first.
//
// Those multicasts may complete in any order, so one that RecvSpan
// returns is not marked consumed — a later one would otherwise make the
// earlier ones stale — and a repair resend can return it again: the
// caller counts what it holds. Instead RecvSpan first retires every
// multicast of the operations before the span, so the caller opens the
// span at the oldest operation it still awaits.
//
// A timeout ≥ 0 (nanoseconds on the device clock) bounds the wait, and
// ok=false reports expiry; a negative one waits as every collective
// receive does, through the failure detector's sweeps.
func (cc CollCtx) RecvSpan(ops int, timeout int64) (m transport.Message, op int, ok bool, err error) {
	c, rt := cc.c, cc.c.rt
	rt.markConsumed(&transport.Message{Kind: transport.Mcast, Comm: c.ctx, Seq: cc.seq - 1})
	watermark := rt.mcastSeen[c.ctx] // the match below must not move it
	defer func() { rt.mcastSeen[c.ctx] = watermark }()
	slice, end := Slice(c.rank).tag(), cc.seq+uint32(ops)
	pred := func(m *transport.Message) bool {
		if m.Comm != c.ctx || m.Seq < cc.seq || m.Seq >= end {
			return false
		}
		if m.Kind == transport.Mcast {
			return m.Tag == Whole.tag() || m.Tag == slice
		}
		return m.Kind == transport.P2P && m.Tag <= collTagBase
	}
	if timeout < 0 {
		m, err = c.recvMatchFT(pred)
		ok = err == nil
	} else {
		m, ok, err = rt.recvMatchTimeout(pred, timeout)
	}
	if !ok || err != nil {
		return transport.Message{}, 0, false, err
	}
	return m, int(m.Seq - cc.seq), true, nil
}

// ---------------------------------------------------------------------------
// Public collective API. Each runs the one implementation its
// communicator's Algorithms names; a nil field is an ErrNoAlgorithm.

// noAlgorithm is the error of a collective whose Algorithms field is nil.
func noAlgorithm(op string) error {
	return fmt.Errorf("%w: %s", ErrNoAlgorithm, op)
}

// wholeElements returns an error unless every buffer holds whole dt
// elements. The reducing collectives check it at every rank before any
// message moves: a buffer that fails first where it is combined would
// leave that rank's peers waiting on a reduction that never comes.
func wholeElements(op string, dt Datatype, bufs ...[]byte) error {
	for _, b := range bufs {
		if len(b)%dt.Size() != 0 {
			return fmt.Errorf("mpi: %s buffer of %d bytes is not whole %v elements", op, len(b), dt)
		}
	}
	return nil
}

// bufferSize returns an error wrapping ErrBufferSize unless a buffer of
// got bytes is the want bytes the operation's shape asks for. Like
// wholeElements it runs before any message moves; the implementations
// rely on it and check no buffer shape themselves.
func bufferSize(op, buf string, got, want int) error {
	if got != want {
		return fmt.Errorf("%w: %s %s buffer %d bytes, want %d", ErrBufferSize, op, buf, got, want)
	}
	return nil
}

// Bcast broadcasts buf from root to every rank; all ranks supply a buffer
// of identical length and all except root receive into it.
func (c *Comm) Bcast(buf []byte, root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: bcast root %d", ErrInvalidRank, root)
	}
	if c.algs.Bcast == nil {
		return noAlgorithm("bcast")
	}
	defer c.endOp(c.beginOp("bcast"), "bcast")
	return c.algs.Bcast(c, buf, root)
}

// Barrier blocks until every rank of the communicator has entered.
func (c *Comm) Barrier() error {
	if c.algs.Barrier == nil {
		return noAlgorithm("barrier")
	}
	defer c.endOp(c.beginOp("barrier"), "barrier")
	return c.algs.Barrier(c)
}

// Reduce combines every rank's send buffer element-wise with op and
// leaves the result in recv on root (recv is ignored elsewhere). Like
// every reducing collective, it fails at every rank, before any message
// moves, when a buffer does not hold whole dt elements.
func (c *Comm) Reduce(send, recv []byte, dt Datatype, op Op, root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: reduce root %d", ErrInvalidRank, root)
	}
	if c.algs.Reduce == nil {
		return noAlgorithm("reduce")
	}
	if err := wholeElements("reduce", dt, send); err != nil {
		return err
	}
	if c.Rank() == root {
		if err := bufferSize("reduce", "recv", len(recv), len(send)); err != nil {
			return err
		}
	}
	defer c.endOp(c.beginOp("reduce"), "reduce")
	return c.algs.Reduce(c, send, recv, dt, op, root)
}

// Allreduce combines every rank's send buffer element-wise with op and
// leaves the result in every rank's recv.
func (c *Comm) Allreduce(send, recv []byte, dt Datatype, op Op) error {
	if c.algs.Allreduce == nil {
		return noAlgorithm("allreduce")
	}
	if err := wholeElements("allreduce", dt, send); err != nil {
		return err
	}
	if err := bufferSize("allreduce", "recv", len(recv), len(send)); err != nil {
		return err
	}
	defer c.endOp(c.beginOp("allreduce"), "allreduce")
	return c.algs.Allreduce(c, send, recv, dt, op)
}

// Gather concatenates every rank's equal-sized send buffer into recv on
// root (recv must be Size()*len(send) bytes there; ignored elsewhere).
func (c *Comm) Gather(send, recv []byte, root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: gather root %d", ErrInvalidRank, root)
	}
	if c.algs.Gather == nil {
		return noAlgorithm("gather")
	}
	if c.Rank() == root {
		if err := bufferSize("gather", "recv", len(recv), len(send)*c.Size()); err != nil {
			return err
		}
	}
	defer c.endOp(c.beginOp("gather"), "gather")
	return c.algs.Gather(c, send, recv, root)
}

// Scatter splits root's send buffer (Size() equal chunks) and delivers
// the i-th chunk to rank i's recv buffer.
func (c *Comm) Scatter(send, recv []byte, root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: scatter root %d", ErrInvalidRank, root)
	}
	if c.algs.Scatter == nil {
		return noAlgorithm("scatter")
	}
	if c.Rank() == root {
		if err := bufferSize("scatter", "send", len(send), len(recv)*c.Size()); err != nil {
			return err
		}
	}
	defer c.endOp(c.beginOp("scatter"), "scatter")
	return c.algs.Scatter(c, send, recv, root)
}

// Allgather concatenates every rank's send buffer into every rank's recv
// buffer (Size()*len(send) bytes).
func (c *Comm) Allgather(send, recv []byte) error {
	if c.algs.Allgather == nil {
		return noAlgorithm("allgather")
	}
	if err := bufferSize("allgather", "recv", len(recv), len(send)*c.Size()); err != nil {
		return err
	}
	defer c.endOp(c.beginOp("allgather"), "allgather")
	return c.algs.Allgather(c, send, recv)
}

// Alltoall sends the i-th chunk of send to rank i and fills the j-th
// chunk of recv with the chunk received from rank j.
func (c *Comm) Alltoall(send, recv []byte) error {
	if c.algs.Alltoall == nil {
		return noAlgorithm("alltoall")
	}
	if err := bufferSize("alltoall", "send", len(send), len(send)/c.Size()*c.Size()); err != nil {
		return err
	}
	if err := bufferSize("alltoall", "recv", len(recv), len(send)); err != nil {
		return err
	}
	defer c.endOp(c.beginOp("alltoall"), "alltoall")
	return c.algs.Alltoall(c, send, recv)
}

// Scan computes an inclusive prefix reduction: rank i's recv buffer ends
// up holding send(0) op send(1) op … op send(i), combined in rank order.
func (c *Comm) Scan(send, recv []byte, dt Datatype, op Op) error {
	if c.algs.Scan == nil {
		return noAlgorithm("scan")
	}
	if err := wholeElements("scan", dt, send); err != nil {
		return err
	}
	if err := bufferSize("scan", "recv", len(recv), len(send)); err != nil {
		return err
	}
	defer c.endOp(c.beginOp("scan"), "scan")
	return c.algs.Scan(c, send, recv, dt, op)
}

// ReduceScatter reduces Size() equal chunks element-wise across all
// ranks and scatters the result: rank i receives the fully reduced i-th
// chunk in recv (len(send) = Size()*len(recv)).
func (c *Comm) ReduceScatter(send, recv []byte, dt Datatype, op Op) error {
	if c.algs.ReduceScatter == nil {
		return noAlgorithm("reduce_scatter")
	}
	if err := wholeElements("reduce_scatter", dt, send, recv); err != nil {
		return err
	}
	if err := bufferSize("reduce_scatter", "send", len(send), len(recv)*c.Size()); err != nil {
		return err
	}
	defer c.endOp(c.beginOp("reduce_scatter"), "reduce_scatter")
	return c.algs.ReduceScatter(c, send, recv, dt, op)
}
