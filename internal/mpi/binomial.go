package mpi

import (
	"fmt"
	"slices"

	"repro/internal/topo"
	"repro/internal/transport"
)

// Binomial places relative position rel in the low-bit-first binomial
// tree over positions 0..span-1, the one tree every walk in the
// repository runs (the paper's Fig. 2 broadcast and Fig. 3 scout gather,
// every reduction, which ReduceWalks runs in reverse, and the lane gather
// of BinomialTree): parent is rel
// with its lowest set bit cleared (-1 at the root, rel 0), and the
// children are rel+mask for every power of two mask below that bit with
// rel+mask < span. It is pure and allocation-free; callers map positions
// to ranks.
func Binomial(rel, span int) (parent int, children BinomialChildren) {
	below := rel & -rel
	parent = rel - below
	if rel == 0 {
		parent, below = -1, span
	}
	return parent, BinomialChildren{rel: rel, below: below, span: span}
}

// BinomialChildren are one position's children in the Binomial tree.
type BinomialChildren struct{ rel, below, span int }

// All yields the children in increasing-mask order, the order a
// combining walk absorbs them in.
func (c BinomialChildren) All(yield func(int) bool) {
	for mask := 1; mask < c.below && c.rel+mask < c.span; mask <<= 1 {
		if !yield(c.rel + mask) {
			return
		}
	}
}

// Backward yields the children in decreasing-mask order, largest
// subtree first: the order a broadcast forwards in.
func (c BinomialChildren) Backward(yield func(int) bool) {
	mask := 1
	for mask < c.below && c.rel+mask < c.span {
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if !yield(c.rel + mask) {
			return
		}
	}
}

// ReduceWalks runs this rank's part of every binomial reduction in the
// repository, a list of combining walks among group (communicator ranks,
// this one included): walk k combines buf[offs[k]:offs[k+1]] toward
// group[k], for k < len(offs)-1, up the Binomial tree over the whole
// group with positions relative to k, on phase phase+k, in buf in place.
// A rank receives its children's contributions, absorbs them in
// increasing-mask order, and sends the combined region to its parent;
// only walk k's root keeps the result. reliable marks the traffic:
// true for the MPICH reduction (baseline.Reduce), false on the UDP
// bypass (core's allreduces and the chunked reduce-scatter).
//
// Among several regions an empty one takes no walk. A lone region is
// walked even when it is empty: an allreduce's fan-out takes its root's
// receipt of that reduction as proof that every rank has entered, so the
// empty messages are the evidence (the M=0 frame counts pin it).
//
// The walks overlap: every walk where this rank is a leaf fires its
// parent send up front, filling the wire immediately, and the remaining
// interior walks make progress in whatever order their children's
// contributions arrive (recvPhaseRange is the event pump — the walk
// index rides the message phase, and traffic of other phases stays
// queued for its own step), so the wire and the hosts work concurrently
// while each walk's tree, phases, classes and frame counts stay those of
// a blocking walk (the a3 table).
func ReduceWalks(cc CollCtx, group, offs []int, phase int, reliable bool, buf []byte, dt Datatype, op Op) error {
	size, regions := len(group), len(offs)-1
	me := slices.Index(group, cc.Comm().Rank())
	// walk is one interior walk's progress state.
	type walk struct {
		lo, hi   int
		parent   int            // rank to send the combined region to; -1 at the walk's root
		children []int          // child ranks in increasing-mask order (the blocking walk's absorb order)
		pending  map[int][]byte // child contributions buffered until all have arrived
	}
	walks := make(map[int]*walk, regions)
	for k := 0; k < regions; k++ {
		lo, hi := offs[k], offs[k+1]
		if lo == hi && regions > 1 {
			continue
		}
		parent, kids := Binomial((me-k+size)%size, size)
		if parent >= 0 {
			parent = group[(parent+k)%size]
		}
		var children []int
		for ch := range kids.All {
			children = append(children, group[(ch+k)%size])
		}
		if len(children) == 0 {
			// Leaf in this walk: nothing to combine — send immediately,
			// before any interior walk blocks. These up-front sends are
			// the overlap: every leaf contribution of every walk is on
			// the wire before the first receive.
			if parent >= 0 {
				if err := cc.Send(parent, phase+k, buf[lo:hi], transport.ClassData, reliable); err != nil {
					return err
				}
			}
			continue
		}
		walks[k] = &walk{lo: lo, hi: hi, parent: parent, children: children,
			pending: make(map[int][]byte, len(children))}
	}
	for len(walks) > 0 {
		m, got, err := cc.recvPhaseRange(phase, phase+regions-1)
		if err != nil {
			return err
		}
		k := got - phase
		w := walks[k]
		if w == nil {
			return fmt.Errorf("mpi: reduce walk %d contribution at rank %d, which is not interior in that walk", k, group[me])
		}
		src := cc.SrcRank(m)
		if len(m.Payload) != w.hi-w.lo {
			return fmt.Errorf("mpi: reduce walk %d contribution %d bytes, want %d", k, len(m.Payload), w.hi-w.lo)
		}
		if _, dup := w.pending[src]; dup {
			return fmt.Errorf("mpi: reduce walk %d duplicate contribution from %d", k, src)
		}
		w.pending[src] = m.Payload
		if len(w.pending) < len(w.children) {
			continue
		}
		// Every child is in: absorb in the blocking walk's mask order,
		// then pass the combined region up (or keep it, at the root).
		region := buf[w.lo:w.hi]
		for _, ch := range w.children {
			p, ok := w.pending[ch]
			if !ok {
				return fmt.Errorf("mpi: reduce walk %d missing contribution from %d", k, ch)
			}
			if err := ReduceBytes(op, dt, region, p); err != nil {
				return err
			}
		}
		if w.parent >= 0 {
			if err := cc.Send(w.parent, phase+k, region, transport.ClassData, reliable); err != nil {
				return err
			}
		}
		delete(walks, k)
	}
	return nil
}

// ReduceHalving is the recursive-halving reduce-scatter among group
// (communicator ranks, this one included, a power of two of them): on
// return group[k] holds buf[offs[k]:offs[k+1]] combined over the whole
// group, for every k — what one ReduceWalks call over the same regions
// leaves at the walks' roots, in log2(len(group)) messages per rank where
// the walks send len(group)-1. At step j, with d = len(group)>>(j+1), the
// rank at position p and its partner p XOR d hold the same range of 2d
// regions, aligned to 2d: each keeps the half that holds its own region,
// sends the partner the other half on phase phase+j, and combines the
// partner's copy of the half it keeps into buf. A half of no bytes is
// neither sent nor awaited. reliable and the traffic class are
// ReduceWalks': ClassData, false on the UDP bypass.
//
// Partners share one range at every step, so a rank whose own region is
// not empty has heard, directly or through its earlier partners, from
// every rank of the group — the evidence a walk's root holds, and what
// the chunked allreduce gates its allgather on. The combining order is
// not the walks', so op should be commutative and associative (every
// built-in mpi.Op is; floating-point sums may round differently).
func ReduceHalving(cc CollCtx, group, offs []int, phase int, reliable bool, buf []byte, dt Datatype, op Op) error {
	size := len(group)
	if size == 0 || size&(size-1) != 0 || len(offs) != size+1 {
		return fmt.Errorf("mpi: recursive halving over %d ranks and %d offsets, want a power of two and one more", size, len(offs))
	}
	me := slices.Index(group, cc.Comm().Rank())
	if me < 0 {
		return fmt.Errorf("mpi: recursive halving at rank %d, which is not in group %v", cc.Comm().Rank(), group)
	}
	lo := 0 // first region of the range this rank and its partner hold
	for j, d := 0, size/2; d > 0; j, d = j+1, d/2 {
		keep, give := lo, lo+d
		if me&d != 0 {
			keep, give = give, keep
		}
		partner := group[me^d]
		if out := buf[offs[give]:offs[give+d]]; len(out) > 0 {
			if err := cc.Send(partner, phase+j, out, transport.ClassData, reliable); err != nil {
				return err
			}
		}
		if in := buf[offs[keep]:offs[keep+d]]; len(in) > 0 {
			m, err := cc.Recv(partner, phase+j)
			if err != nil {
				return err
			}
			if len(m.Payload) != len(in) {
				return fmt.Errorf("mpi: halving step %d contribution from %d is %d bytes, want %d", j, partner, len(m.Payload), len(in))
			}
			if err := ReduceBytes(op, dt, in, m.Payload); err != nil {
				return err
			}
		}
		lo = keep
	}
	return nil
}

// Tree is the shape of a gather (GatherTree): which ranks take part,
// the rank each of them sends its subtree's block to, and so the order a
// subtree's blocks are laid out in — pre-order: a rank's own slot, then
// each child's subtree in turn. Star, BinomialTree and Nested build one.
type Tree struct {
	root     int
	group    []int     // Star and BinomialTree: the tree's ranks (a Star's nil: every rank)
	segs     *topo.Map // Nested: the segments
	binomial bool
}

// Star is the tree in which every rank of group sends its block straight
// to root, a rank of group; a nil group is every rank of the
// communicator. It is the linear gather (MPICH's, and a segment's
// members handing their blocks to its leader).
func Star(root int, group []int) Tree { return Tree{root: root, group: group} }

// BinomialTree is the Binomial tree over the positions of group, rooted
// at group[0] (group must not be empty): the subtree of position s is
// positions s to s+lowbit(s)-1, so a rank's block is a contiguous run of
// the group — Träff's gather along one lane.
func BinomialTree(group []int) Tree { return Tree{root: group[0], group: group, binomial: true} }

// Nested is the two-level tree over t's segments of Karonis et al.:
// every rank sends its block to its segment's leader, and every leader
// its segment's block, in member order, to root — which leads its own
// segment, so its segment's members send to it directly.
func Nested(root int, t *topo.Map) Tree { return Tree{root: root, segs: t} }

// parent returns the rank r, a rank of the communicator, sends its
// subtree's block to: -1 at the root, -2 outside the tree.
func (t Tree) parent(r int) int {
	pos := slices.Index(t.group, r)
	switch {
	case r == t.root:
		return -1
	case t.segs != nil:
		if lead := t.lead(r); lead != r {
			return lead
		}
		return t.root
	case t.binomial && pos > 0:
		p, _ := Binomial(pos, len(t.group))
		return t.group[p]
	case !t.binomial && (pos >= 0 || t.group == nil):
		return t.root
	}
	return -2
}

// lead is the rank r's segment of a Nested tree gathers at: its leader,
// or root in root's own segment.
func (t Tree) lead(r int) int {
	if seg := t.segs.SegmentOf(r); seg != t.segs.SegmentOf(t.root) {
		return t.segs.Leader(seg)
	}
	return t.root
}

// children calls visit with r's children in layout order: the Binomial
// tree's in increasing-mask order, a star's and a nested tree's in rank
// order.
func (t Tree) children(r, size int, visit func(int)) {
	if t.binomial {
		_, kids := Binomial(slices.Index(t.group, r), len(t.group))
		for c := range kids.All {
			visit(t.group[c])
		}
		return
	}
	if r != t.root && (t.segs == nil || t.lead(r) != r) {
		return // a leaf
	}
	for c := range size {
		if t.parent(c) == r {
			visit(c)
		}
	}
}

// subtree calls visit with the ranks of r's subtree in pre-order.
func (t Tree) subtree(r, size int, visit func(int)) {
	visit(r)
	t.children(r, size, func(c int) { t.subtree(c, size, visit) })
}

// GatherTree runs this rank's part of every gather in the repository
// that climbs a tree toward one rank: package baseline's linear gather
// (Star), core's two-level gather (Nested), the two-level allreduce's
// member combine (Star) and the chunked allreduce's slice gathers (Star
// or BinomialTree). slot(r) is rank r's byte range in this rank's
// buffer, for every rank of this rank's subtree. The rank receives one
// block from each of its children, from whichever child is first, on
// phase phase, and copies each into the slots of the child's subtree in
// pre-order; once all are in, it sends its own subtree's slots, in
// pre-order, to its parent as one block: a leaf's slot as it lies, an
// interior rank's slots copied end to end. Every edge carries one
// message, an empty one too: a zero-byte gather still sends each parent
// one, as MPICH's does (the M=0 frame counts pin it); a caller that
// sends nothing for an empty slot builds its tree over the ranks with
// bytes. The traffic class and reliable are ReduceWalks': ClassData,
// with reliable true for MPICH's traffic and false on the UDP bypass.
//
// A rank outside the tree and a block from a rank that is not one of
// this rank's children return an error wrapping ErrInvalidRank, and a
// block of the wrong length one wrapping ErrBufferSize, before anything
// more is received or sent.
func GatherTree(cc CollCtx, tree Tree, phase int, reliable bool, slot func(rank int) []byte) error {
	me, size := cc.Comm().Rank(), cc.Comm().Size()
	parent := tree.parent(me)
	if parent < -1 {
		return fmt.Errorf("%w: gather at rank %d, which is not in its tree", ErrInvalidRank, me)
	}
	blocks := 0
	tree.children(me, size, func(int) { blocks++ })
	for range blocks {
		m, err := cc.Recv(AnySource, phase)
		if err != nil {
			return err
		}
		src := cc.SrcRank(m)
		if tree.parent(src) != me {
			return fmt.Errorf("%w: gather block at rank %d from %d, which is not its child", ErrInvalidRank, me, src)
		}
		want := 0
		tree.subtree(src, size, func(r int) { want += len(slot(r)) })
		if len(m.Payload) != want {
			return fmt.Errorf("%w: gather block from %d is %d bytes, want %d", ErrBufferSize, src, len(m.Payload), want)
		}
		p := m.Payload
		tree.subtree(src, size, func(r int) { p = p[copy(slot(r), p):] })
	}
	if parent < 0 {
		return nil
	}
	block := slot(me)
	if blocks > 0 { // its children's slots follow its own
		block = nil
		tree.subtree(me, size, func(r int) { block = append(block, slot(r)...) })
	}
	return cc.Send(parent, phase, block, transport.ClassData, reliable)
}
