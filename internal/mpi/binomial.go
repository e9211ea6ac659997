package mpi

import "repro/internal/transport"

// Binomial places relative position rel in the low-bit-first binomial
// tree over positions 0..span-1, the one tree every walk in the
// repository runs (the paper's Fig. 2 broadcast and Fig. 3 scout gather,
// the binomial reductions): parent is rel with its lowest set bit
// cleared (-1 at the root, rel 0), and the children are rel+mask for
// every power of two mask below that bit with rel+mask < span. It is
// pure and allocation-free; callers map positions to ranks.
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

// BinomialToRoot runs one rank's part of a low-bit-first binomial
// combining tree toward root over the whole communicator (Binomial, with
// positions relative to root): a rank receives from its children and
// absorbs each, then sends its accumulator to its parent and leaves the
// tree. Only the root remains, holding the combined result, and the call
// reports atRoot=true there (every other rank has sent and returned with
// atRoot=false).
//
// The same walk underlies several protocols that differ only in payload
// and wire marking, which is why it is parameterized on (phase, class,
// reliable) instead of copied:
//
//   - the MPICH binomial reduction (baseline.Reduce): data payloads over
//     the reliable TCP-like path;
//   - the multicast allreduce's reduce half (core): data payloads over
//     the UDP bypass.
//
// acc is the payload sent to the parent; absorb, when non-nil, is called
// with each child's source rank and payload (typically combining into
// acc before the parent send happens).
func BinomialToRoot(cc CollCtx, root, phase int, class transport.Class, reliable bool, acc []byte, absorb func(src int, payload []byte) error) (atRoot bool, err error) {
	c := cc.Comm()
	size := c.Size()
	parent, children := Binomial((c.Rank()-root+size)%size, size)
	for child := range children.All {
		m, err := cc.Recv((child+root)%size, phase)
		if err != nil {
			return false, err
		}
		if absorb != nil {
			if err := absorb(cc.SrcRank(m), m.Payload); err != nil {
				return false, err
			}
		}
	}
	if parent < 0 {
		return true, nil
	}
	return false, cc.Send((parent+root)%size, phase, acc, class, reliable)
}
