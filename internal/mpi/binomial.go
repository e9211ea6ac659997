package mpi

import (
	"fmt"
	"slices"

	"repro/internal/transport"
)

// Binomial places relative position rel in the low-bit-first binomial
// tree over positions 0..span-1, the one tree every walk in the
// repository runs (the paper's Fig. 2 broadcast and Fig. 3 scout gather,
// and every reduction, which ReduceWalks runs in reverse): parent is rel
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
