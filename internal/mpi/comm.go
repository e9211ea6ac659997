// Package mpi implements the subset of the Message Passing Interface the
// paper builds on: communicators, tagged blocking point-to-point
// operations with MPI matching semantics (wildcards and unexpected-message
// queues), and the full set of collective operations with pluggable
// algorithms.
//
// The layering mirrors MPICH's as drawn in the paper's Fig. 1. Collective
// operations are, by default, implemented over point-to-point messages;
// package baseline supplies the MPICH algorithms (binomial-tree broadcast,
// three-phase barrier) and package core supplies the paper's multicast
// implementations, which bypass the point-to-point path and talk to the
// device's multicast directly.
//
// # Failure detection and shrink
//
// A runtime with SetFailureDetection armed turns every blocking
// collective receive into a bounded wait: after each suspicion period
// of silence the rank sweeps the whole group with transport-level pings
// (answered at interrupt level, so a rank deep in a compute stall stays
// alive while a dead one stays silent) and, once a peer exhausts its
// ping budget, the collective returns a *RankFailedError naming the
// dead members instead of hanging. The contract on every live rank is:
// a correct result, or a RankFailedError carrying the true dead set —
// never a hang, never a silently wrong answer. The sweep covers the
// full group rather than only the blocking peer, so every survivor
// converges on the same dead set no matter where in the collective it
// was stuck.
//
// That determinism is what lets Comm.Shrink work without a
// coordination round: each survivor independently drops the dead ranks
// it has observed, renumbers the remainder in world-rank order, and
// derives the new communicator id from an FNV hash salted with the
// dead set — survivors that agree on who died (and after a full sweep
// they do) build interoperable communicators, and a straggler that
// missed a death is fenced off by the id. Collectives rerun on the
// shrunk communicator are oracle-exact; see internal/core's chaos
// matrix for the enforced kill/straggler/partition scenarios.
package mpi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Wildcards for Recv.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// WorldContext is the context id of the world communicator. Every derived
// communicator gets a distinct id, which also names its multicast group.
const WorldContext uint32 = 1

// Exported error conditions.
var (
	// ErrTruncated reports a receive buffer smaller than the message.
	ErrTruncated = errors.New("mpi: message truncated (receive buffer too small)")
	// ErrInvalidRank reports a rank outside the communicator.
	ErrInvalidRank = errors.New("mpi: invalid rank")
	// ErrInvalidTag reports a negative user tag (the negative space is
	// reserved for collective protocols).
	ErrInvalidTag = errors.New("mpi: invalid tag (user tags must be non-negative)")
	// ErrNoAlgorithm reports a collective whose Algorithms field is nil;
	// the error names the operation.
	ErrNoAlgorithm = errors.New("mpi: no algorithm selected for collective")
	// ErrBufferSize reports a collective buffer whose length does not
	// fit the operation's shape; the error names the operation and the
	// lengths.
	ErrBufferSize = errors.New("mpi: collective buffer size")
)

// Runtime is one rank's MPI instance: the endpoint plus the matching
// engine shared by all communicators of this rank. Create one per rank
// with NewRuntime, then derive the world communicator.
type Runtime struct {
	ep transport.Endpoint
	caps

	// unexpected buffers messages that arrived before a matching receive
	// was posted, in arrival order (MPI's unexpected-message queue).
	unexpected []transport.Message

	// mcastSeen records, per communicator context, the highest multicast
	// collective sequence number already consumed. Retransmissions from
	// acknowledgment-based reliability protocols arrive with an
	// already-consumed sequence number and are discarded here, so
	// duplicates never accumulate in the unexpected queue.
	mcastSeen map[uint32]uint32

	// fd is the optional failure detector (SetFailureDetection). When
	// nil, collective receives block forever exactly as before.
	fd *failureDetector
}

// caps is what the device offers beyond transport.Endpoint; a nil field
// means it offers none.
type caps struct {
	wire transport.Wire // nil on the in-process device
	topo topo.Provider
	rec  *trace.Recorder   // flight recorder: every span and instant the collective layers record
	mreg *metrics.Registry // per-op invocation counts and completion latencies
}

// NewRuntime wraps an endpoint. Whether the device has a wire is
// discovered once, here, by interface assertion.
func NewRuntime(ep transport.Endpoint) *Runtime {
	rt := &Runtime{ep: ep}
	rt.wire, _ = ep.(transport.Wire)
	rt.topo, _ = ep.(topo.Provider)
	if tc, ok := ep.(trace.Carrier); ok {
		rt.rec = tc.TraceRecorder()
	}
	if mc, ok := ep.(metrics.Carrier); ok {
		rt.mreg = mc.MetricsRegistry()
	}
	return rt
}

// Trace returns the device's flight recorder, or nil when tracing is
// disabled. All recorder methods are nil-safe, so callers may use the
// result unconditionally.
func (rt *Runtime) Trace() *trace.Recorder { return rt.rec }

// sendP2P routes a point-to-point message to world rank dstWorld. All
// point-to-point traffic rides the reliable stream of a device with a
// wire, so a lost frame of any kind is retransmitted instead of
// deadlocking the collective: the bypass messages (Reliable=false — the
// paper's UDP path: scouts, reduce halves, gather chunks, repair
// requests) with the silent-until-probed happy path, and the
// modeled-TCP baseline messages (Reliable=true), whose deliveries the
// stream acknowledges eagerly like the kernel's TCP did — no traffic
// class is reliable by fiat, so loss sweeps cover the MPICH baselines
// as well.
func (rt *Runtime) sendP2P(dstWorld int, m transport.Message) error {
	if rt.wire != nil {
		return rt.wire.SendReliable(dstWorld, m)
	}
	return rt.ep.Send(dstWorld, m)
}

// Endpoint returns the underlying device endpoint.
func (rt *Runtime) Endpoint() transport.Endpoint { return rt.ep }

// Close shuts down the underlying endpoint.
func (rt *Runtime) Close() error { return rt.ep.Close() }

// stale reports whether a multicast message duplicates one this rank
// already consumed (a reliability-protocol retransmission).
func (rt *Runtime) stale(m *transport.Message) bool {
	return m.Kind == transport.Mcast && rt.mcastSeen[m.Comm] >= m.Seq && rt.mcastSeen[m.Comm] != 0
}

// markConsumed advances the multicast watermark for the message's
// communicator.
func (rt *Runtime) markConsumed(m *transport.Message) {
	if m.Kind != transport.Mcast {
		return
	}
	if rt.mcastSeen == nil {
		rt.mcastSeen = make(map[uint32]uint32)
	}
	if m.Seq > rt.mcastSeen[m.Comm] {
		rt.mcastSeen[m.Comm] = m.Seq
	}
}

// recvMatch returns the first message satisfying pred, consulting the
// unexpected queue before pulling from the device. Non-matching arrivals
// are queued, preserving order; stale multicast duplicates are dropped.
func (rt *Runtime) recvMatch(pred func(*transport.Message) bool) (transport.Message, error) {
	if m, ok := rt.scanUnexpected(pred); ok {
		return m, nil
	}
	for {
		m, err := rt.ep.Recv()
		if err != nil {
			return transport.Message{}, err
		}
		if rt.stale(&m) {
			continue
		}
		if pred(&m) {
			rt.markConsumed(&m)
			return m, nil
		}
		rt.unexpected = append(rt.unexpected, m)
	}
}

// recvMatchTimeout is recvMatch with a deadline; ok=false on expiry.
func (rt *Runtime) recvMatchTimeout(pred func(*transport.Message) bool, timeout int64) (transport.Message, bool, error) {
	if m, ok := rt.scanUnexpected(pred); ok {
		return m, true, nil
	}
	deadline := rt.ep.Now() + timeout
	for {
		remain := deadline - rt.ep.Now()
		if remain <= 0 {
			return transport.Message{}, false, nil
		}
		m, got, err := rt.ep.RecvTimeout(remain)
		if err != nil {
			return transport.Message{}, false, err
		}
		if !got {
			return transport.Message{}, false, nil
		}
		if rt.stale(&m) {
			continue
		}
		if pred(&m) {
			rt.markConsumed(&m)
			return m, true, nil
		}
		rt.unexpected = append(rt.unexpected, m)
	}
}

// scanUnexpected removes and returns the first queued message satisfying
// pred, dropping stale multicast duplicates as it goes. pred sees a
// pointer into the queue itself: a copy whose address escaped into the
// closure would cost one heap allocation per queued message per scan.
func (rt *Runtime) scanUnexpected(pred func(*transport.Message) bool) (transport.Message, bool) {
	kept := rt.unexpected[:0]
	var found transport.Message
	ok := false
	for i := range rt.unexpected {
		m := &rt.unexpected[i]
		if !ok && pred(m) {
			found = *m
			ok = true
			continue
		}
		if rt.stale(m) {
			continue
		}
		kept = append(kept, *m)
	}
	// Zero the tail so dropped messages do not pin payloads.
	for i := len(kept); i < len(rt.unexpected); i++ {
		rt.unexpected[i] = transport.Message{}
	}
	rt.unexpected = kept
	if ok {
		rt.markConsumed(&found)
	}
	return found, ok
}

// UnexpectedDepth reports the current unexpected-queue length (useful in
// tests asserting that protocols drain what they produce).
func (rt *Runtime) UnexpectedDepth() int { return len(rt.unexpected) }

// Comm is a communicator: an ordered group of ranks with a private
// communication context. Rank arguments on all methods are
// communicator-relative.
type Comm struct {
	rt      *Runtime
	ctx     uint32
	group   []int       // comm rank -> world rank
	inverse map[int]int // world rank -> comm rank
	rank    int         // this process's comm rank
	collSeq uint32      // per-communicator collective sequence number
	derived uint32      // counter for deterministic child context ids
	algs    Algorithms
	joined  bool
	// opm caches the per-operation metrics handles (counter + latency
	// histogram keyed by op name) so the dispatchers pay one map lookup
	// per call, not a registry round trip. A Comm is driven by its
	// rank's single goroutine, so the map needs no lock. Nil until the
	// first instrumented call; always nil when the registry is.
	opm map[string]*opMetrics
	// topoMap is the communicator-local projection of the device's
	// topology (nil when the device reports none): comm ranks placed on
	// the fabric segments the group spans. Topology-aware collectives in
	// package core read it; everything else ignores it.
	topoMap *topo.Map
	segJoin bool // this rank joined its segment's multicast group
}

// Algorithms selects the implementation of each collective operation:
// the communicator runs exactly the function a field names, and a nil
// field makes that collective return an error wrapping ErrNoAlgorithm.
// Package baseline provides the MPICH set and package core the paper's
// multicast sets; every one of them fills every field (core's run the
// baseline's operations where it has none of its own). A program that
// uses only point-to-point passes the zero value.
type Algorithms struct {
	// Name labels this selection in exported telemetry (the alg label
	// on mcast_coll_ops / mcast_coll_latency_us). Empty reads as
	// "default". It carries no behavioural weight.
	Name string

	Bcast         func(c *Comm, buf []byte, root int) error
	Barrier       func(c *Comm) error
	Reduce        func(c *Comm, send, recv []byte, dt Datatype, op Op, root int) error
	Allreduce     func(c *Comm, send, recv []byte, dt Datatype, op Op) error
	Gather        func(c *Comm, send, recv []byte, root int) error
	Scatter       func(c *Comm, send, recv []byte, root int) error
	Allgather     func(c *Comm, send, recv []byte) error
	Alltoall      func(c *Comm, send, recv []byte) error
	Scan          func(c *Comm, send, recv []byte, dt Datatype, op Op) error
	ReduceScatter func(c *Comm, send, recv []byte, dt Datatype, op Op) error
}

// World creates the world communicator over rt with the given collective
// algorithm selection. Every rank must call World exactly once with the
// same algorithms.
func World(rt *Runtime, algs Algorithms) (*Comm, error) {
	n := rt.ep.Size()
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	return newComm(rt, WorldContext, group, algs)
}

func newComm(rt *Runtime, ctx uint32, group []int, algs Algorithms) (*Comm, error) {
	inv := make(map[int]int, len(group))
	for i, w := range group {
		inv[w] = i
	}
	me, ok := inv[rt.ep.Rank()]
	if !ok {
		return nil, fmt.Errorf("mpi: world rank %d not in communicator group", rt.ep.Rank())
	}
	c := &Comm{
		rt:      rt,
		ctx:     ctx,
		group:   group,
		inverse: inv,
		rank:    me,
		algs:    algs,
	}
	// The device's topology, when it reports one, projects onto the
	// communicator group: comm ranks placed on the fabric segments the
	// group spans.
	if rt.topo != nil {
		if wm := rt.topo.TopoMap(); wm != nil {
			pm, err := wm.Project(group)
			if err != nil {
				return nil, fmt.Errorf("mpi: projecting topology onto communicator: %w", err)
			}
			c.topoMap = pm
		}
	}
	// Receivers must belong to the communicator's multicast group before
	// any collective runs — the receiver-directed half of IP multicast.
	// Each rank additionally joins its own slice group, the per-slice
	// address the slice-granular collectives (sliced scatter, sliced
	// alltoall rounds) multicast fragments to: subscribing only to the
	// slice it owns is what lets the NIC drop every foreign-slice
	// fragment instead of delivering the whole N·M buffer. On a fabric
	// with a known topology each rank also joins its segment's group,
	// the address the two-level collectives use for segment-local
	// protocol multicasts that must never cross the shared uplink.
	if err := rt.ep.Join(ctx); err != nil {
		return nil, fmt.Errorf("mpi: joining multicast group %d: %w", ctx, err)
	}
	if err := rt.ep.Join(transport.SliceGroup(ctx, me)); err != nil {
		return nil, fmt.Errorf("mpi: joining slice group of rank %d: %w", me, err)
	}
	c.joined = true
	if c.topoMap != nil {
		if err := rt.ep.Join(transport.SegmentGroup(ctx, c.topoMap.SegmentOf(me))); err != nil {
			return nil, fmt.Errorf("mpi: joining segment group of rank %d: %w", me, err)
		}
		c.segJoin = true
	}
	return c, nil
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Context returns the communicator's context id (its multicast group).
func (c *Comm) Context() uint32 { return c.ctx }

// Runtime returns the per-rank runtime the communicator runs on.
func (c *Comm) Runtime() *Runtime { return c.rt }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.group[commRank] }

// Now returns monotonic nanoseconds on the device clock (virtual time
// under the simulator); use it to time operations.
func (c *Comm) Now() int64 { return c.rt.ep.Now() }

// Topo returns the communicator's projection of the device topology —
// comm ranks placed on fabric segments — or nil when the device reports
// none. The two-level collectives in package core consult it and fall
// back to the flat algorithms on nil (or degenerate) maps.
func (c *Comm) Topo() *topo.Map { return c.topoMap }

// PostRecvs posts n standing receive descriptors on the device's wire
// (transport.Wire.PostRecvs) and returns a release function that
// retires them. Under strict posted-receive semantics a multicast frame
// arriving while a rank is between Recv calls — transmitting its own
// data while every other rank multicasts too, as in the two-level
// allgather and alltoall — would otherwise be dropped; standing
// descriptors make such an exchange safe by construction. On the
// in-process device, which has no wire, both the post and the release
// are no-ops.
func (c *Comm) PostRecvs(n int) (release func()) {
	w := c.rt.wire
	if w == nil || n <= 0 {
		return func() {}
	}
	w.PostRecvs(n)
	return func() { w.UnpostRecvs(n) }
}

// Free leaves the communicator's multicast group. The communicator must
// not be used afterwards. Freeing the world communicator does not close
// the runtime; use Runtime.Close for that.
func (c *Comm) Free() error {
	if c.joined {
		c.joined = false
		// Attempt every leave even if one fails, so an error on one
		// group cannot leak the remaining memberships.
		var segErr error
		if c.segJoin {
			c.segJoin = false
			segErr = c.rt.ep.Leave(transport.SegmentGroup(c.ctx, c.topoMap.SegmentOf(c.rank)))
		}
		sliceErr := c.rt.ep.Leave(transport.SliceGroup(c.ctx, c.rank))
		ctxErr := c.rt.ep.Leave(c.ctx)
		if segErr != nil {
			return segErr
		}
		if sliceErr != nil {
			return sliceErr
		}
		return ctxErr
	}
	return nil
}

// childContext derives a context id for the n-th communicator derived
// from this one, optionally salted (Split uses the color). The derivation
// is a pure function of parent context and counter, so every member
// computes the same id without communication.
func (c *Comm) childContext(salt uint32) uint32 {
	h := fnv.New32a()
	var b [12]byte
	putU32 := func(off int, v uint32) {
		b[off] = byte(v >> 24)
		b[off+1] = byte(v >> 16)
		b[off+2] = byte(v >> 8)
		b[off+3] = byte(v)
	}
	putU32(0, c.ctx)
	putU32(4, c.derived)
	putU32(8, salt)
	h.Write(b[:])
	id := h.Sum32()
	if id <= WorldContext { // keep clear of the world context
		id += 2
	}
	return id
}

// Dup creates a communicator with the same group but a fresh context —
// collective traffic on the two never interferes, which is how MPI keeps
// "same process group, different context" broadcasts separate (§4 of the
// paper). Every member must call Dup in the same order.
func (c *Comm) Dup() (*Comm, error) {
	ctx := c.childContext(0)
	c.derived++
	group := append([]int(nil), c.group...)
	return newComm(c.rt, ctx, group, c.algs)
}

// Split partitions the communicator: ranks passing the same color form a
// new communicator, ordered by (key, parent rank). Every member must call
// Split collectively; it exchanges the colors with the communicator's
// Allgather. A negative color returns (nil, nil) for ranks that opt out,
// like MPI_UNDEFINED.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Gather everyone's (color, key) with the allgather collective so
	// each rank can compute every group deterministically.
	send := make([]byte, 8)
	putI32(send[0:4], int32(color))
	putI32(send[4:8], int32(key))
	recv := make([]byte, 8*c.Size())
	if err := c.Allgather(send, recv); err != nil {
		return nil, fmt.Errorf("mpi: split allgather: %w", err)
	}
	type member struct{ color, key, rank int }
	var mine []member
	for r := 0; r < c.Size(); r++ {
		col := int(getI32(recv[8*r : 8*r+4]))
		k := int(getI32(recv[8*r+4 : 8*r+8]))
		if col == color {
			mine = append(mine, member{color: col, key: k, rank: r})
		}
	}
	c.derived++
	if color < 0 {
		return nil, nil
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	group := make([]int, len(mine))
	for i, m := range mine {
		group[i] = c.group[m.rank]
	}
	ctx := c.childContext(uint32(color) + 1)
	return newComm(c.rt, ctx, group, c.algs)
}

func putI32(b []byte, v int32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func getI32(b []byte) int32 {
	return int32(b[0])<<24 | int32(b[1])<<16 | int32(b[2])<<8 | int32(b[3])
}
