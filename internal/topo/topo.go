// Package topo is the topology-awareness subsystem: it describes how
// world ranks are placed onto the shared-medium segments of the fabric,
// so collective algorithms can cluster communication by locality instead
// of treating every pair of ranks as equidistant.
//
// The paper's testbed is flat — eight stations on one hub or one switch
// — but the shared-uplink fabrics the N-sweeps model (simnet.
// SwitchShared: several stations share one switch port through a
// half-duplex segment) are not: a frame between two stations on one
// segment never crosses an uplink, while a frame between segments pays
// the sender's segment, the uplink fabric and the receiver's segment.
// The figure 14n/15n sweeps show what topology-blind collectives cost
// there: the allgather's N(N-1) scout frames all serialize on the
// shared uplinks.
//
// A Map captures exactly the placement those algorithms need: which
// segment each rank lives on, the members of each segment, and a
// deterministic per-segment leader (the lowest rank — every rank
// computes the same leaders without communication, like the
// communicator-context derivation in package mpi). Package core's
// two-level collectives combine inside a segment, cross the uplink once
// per segment through the leaders, and multicast results back down —
// the Karonis-style decomposition that cuts the allgather's scout term
// from N(N-1) to ~N + S².
//
// Maps are discovered, not configured, where the transport knows its
// own wiring: a device endpoint that can describe its topology
// implements Provider (simnet builds the map from the SwitchShared
// segment attachment; hub and switch report the honest degenerate maps
// — one shared segment, and one segment per station). Transports that
// cannot see the fabric (real UDP) accept a declared map via their
// configuration. No Provider at all simply means the topology-aware
// algorithms fall back to their flat counterparts.
package topo

import "fmt"

// Map is an immutable placement of n ranks onto S segments. Segment
// indexes are dense (0..S-1) and ordered by their lowest member rank,
// so two Maps describing the same placement are identical however the
// assignment was expressed.
type Map struct {
	segOf []int   // rank -> segment index
	segs  [][]int // segment -> member ranks, ascending
}

// New builds a Map from a rank -> segment-id assignment. Segment ids
// may be arbitrary (sparse, unordered); they are canonicalized to dense
// indexes ordered by lowest member rank. An empty assignment is an
// error, as is a negative id.
func New(assignment []int) (*Map, error) {
	if len(assignment) == 0 {
		return nil, fmt.Errorf("topo: empty assignment")
	}
	index := make(map[int]int) // original id -> dense index
	m := &Map{segOf: make([]int, len(assignment))}
	for rank, id := range assignment {
		if id < 0 {
			return nil, fmt.Errorf("topo: rank %d has negative segment id %d", rank, id)
		}
		seg, ok := index[id]
		if !ok {
			seg = len(m.segs)
			index[id] = seg
			m.segs = append(m.segs, nil)
		}
		m.segOf[rank] = seg
		m.segs[seg] = append(m.segs[seg], rank)
	}
	return m, nil
}

// Uniform places n ranks onto consecutive segments of the given fanout
// (the last segment takes the remainder) — exactly the wiring
// simnet.SwitchShared builds from Profile.UplinkFanout. fanout >= n
// yields the single-segment map, fanout <= 1 one segment per rank.
func Uniform(n, fanout int) *Map {
	if n <= 0 {
		panic("topo: non-positive world size")
	}
	if fanout <= 0 {
		fanout = 1
	}
	assignment := make([]int, n)
	for rank := range assignment {
		assignment[rank] = rank / fanout
	}
	m, err := New(assignment)
	if err != nil {
		panic(err) // unreachable: the assignment is well-formed
	}
	return m
}

// Ranks returns the number of ranks placed.
func (m *Map) Ranks() int { return len(m.segOf) }

// Segments returns the number of segments S.
func (m *Map) Segments() int { return len(m.segs) }

// SegmentOf returns the segment index of rank.
func (m *Map) SegmentOf(rank int) int { return m.segOf[rank] }

// Members returns segment seg's member ranks in ascending order. The
// returned slice is shared; callers must not modify it.
func (m *Map) Members(seg int) []int { return m.segs[seg] }

// Leader returns segment seg's deterministic leader: its lowest member
// rank. Every rank computes the same leaders locally, without
// communication.
func (m *Map) Leader(seg int) int { return m.segs[seg][0] }

// Leaders returns the leader of every segment, indexed by segment.
func (m *Map) Leaders() []int {
	out := make([]int, len(m.segs))
	for s := range m.segs {
		out[s] = m.segs[s][0]
	}
	return out
}

// Project restricts the map to a communicator group (comm rank ->
// world rank, as held by mpi.Comm) and relabels both ranks and
// segments into the communicator's dense spaces: the result places
// len(group) comm ranks on the segments the group actually spans.
// Every member of the group computes an identical projection, so
// derived communicators (Dup, Split) stay topology-aware without
// communication.
func (m *Map) Project(group []int) (*Map, error) {
	assignment := make([]int, len(group))
	for commRank, worldRank := range group {
		if worldRank < 0 || worldRank >= len(m.segOf) {
			return nil, fmt.Errorf("topo: world rank %d outside map of %d ranks", worldRank, len(m.segOf))
		}
		assignment[commRank] = m.segOf[worldRank]
	}
	return New(assignment)
}

// String renders the placement compactly, e.g. "3 segments: [0 1 2] [3 4 5] [6]".
func (m *Map) String() string {
	s := fmt.Sprintf("%d segments:", len(m.segs))
	for _, members := range m.segs {
		s += fmt.Sprintf(" %v", members)
	}
	return s
}

// Provider is the optional device capability of describing the fabric's
// rank placement. Transports that know their wiring (the simulator) or
// were told it (udpnet configuration) implement it on their endpoints;
// package mpi discovers it by interface assertion, exactly like
// transport.Wire. A nil map means the device has no topology to
// report.
type Provider interface {
	// TopoMap returns the world's placement, or nil when unknown.
	TopoMap() *Map
}
