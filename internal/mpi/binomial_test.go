package mpi_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/topo"
	"repro/internal/transport"
)

// TestBinomialTree checks the tree every binomial walk runs, for every
// span up to 70 and every position in it: a parent lists the position
// as its child, children come in increasing-mask order (Backward in the
// reverse), and every position reaches the root in at most log2(span)+1
// steps.
func TestBinomialTree(t *testing.T) {
	for span := 1; span <= 70; span++ {
		edges := 0
		for rel := 0; rel < span; rel++ {
			parent, children := mpi.Binomial(rel, span)
			if (rel == 0) != (parent < 0) || parent >= rel {
				t.Fatalf("span %d: position %d has parent %d", span, rel, parent)
			}
			if parent >= 0 {
				if _, siblings := mpi.Binomial(parent, span); !slices.Contains(slices.Collect(siblings.All), rel) {
					t.Errorf("span %d: parent %d does not list %d as a child", span, parent, rel)
				}
			}
			prev := 0
			for child := range children.All {
				edges++
				mask := child - rel
				if child >= span || mask <= prev || bits.OnesCount(uint(mask)) != 1 {
					t.Errorf("span %d: position %d lists child %d after mask %d", span, rel, child, prev)
				}
				prev = mask
			}
			back := slices.Collect(children.Backward)
			slices.Reverse(back)
			if all := slices.Collect(children.All); !slices.Equal(back, all) {
				t.Errorf("span %d: position %d's children %v, backward reversed %v", span, rel, all, back)
			}
			steps := 0
			for p := rel; p > 0; p, _ = mpi.Binomial(p, span) {
				steps++
			}
			if limit := bits.Len(uint(span)); steps > limit {
				t.Errorf("span %d: position %d reaches the root in %d steps, more than %d", span, rel, steps, limit)
			}
		}
		if edges != span-1 {
			t.Errorf("span %d: %d parent-child edges, want %d", span, edges, span-1)
		}
	}
}

// TestBinomialDoesNotAllocate: the walks call Binomial on every
// collective operation.
func TestBinomialDoesNotAllocate(t *testing.T) {
	sum := 0
	allocs := testing.AllocsPerRun(100, func() {
		parent, children := mpi.Binomial(12, 70)
		sum += parent
		for child := range children.All {
			sum += child
		}
		_, children = mpi.Binomial(0, 70)
		for child := range children.Backward {
			sum += child
		}
	})
	if allocs != 0 {
		t.Fatalf("Binomial allocated %v times per call", allocs)
	}
}

// TestReduceWalks runs overlapped walks among a rotated group, each
// region combined toward its own root and an empty one skipped, then a
// lone empty region, which every rank still walks: its root returns only
// after every other rank has entered.
func TestReduceWalks(t *testing.T) {
	const n = 5
	group := []int{2, 3, 4, 0, 1}
	offs := []int{0, 8, 8, 24, 32, 40} // region 1 is empty
	const want = n * (n + 1) / 2
	err := mpi.RunMem(n, mpi.Algorithms{}, func(c *mpi.Comm) error {
		buf := make([]byte, offs[len(offs)-1])
		for i := 0; i < len(buf); i += 8 {
			binary.BigEndian.PutUint64(buf[i:], uint64(c.Rank()+1))
		}
		if err := mpi.ReduceWalks(c.BeginColl(), group, offs, 0, true, buf, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		for k := range len(offs) - 1 {
			if group[k] != c.Rank() {
				continue
			}
			for i := offs[k]; i < offs[k+1]; i += 8 {
				if got := binary.BigEndian.Uint64(buf[i:]); got != want {
					return fmt.Errorf("walk %d: element at byte %d is %d, want %d", k, i, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var entered atomic.Int32
	err = mpi.RunMem(n, mpi.Algorithms{}, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			time.Sleep(10 * time.Millisecond)
			entered.Add(1)
		}
		if err := mpi.ReduceWalks(c.BeginColl(), []int{0, 1, 2, 3, 4}, []int{0, 0}, 0, false, nil, mpi.Byte, mpi.OpSum); err != nil {
			return err
		}
		if got := entered.Load(); c.Rank() == 0 && got != n-1 {
			return fmt.Errorf("lone empty walk's root returned with %d of %d ranks entered", got, n-1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// countingEndpoint counts the messages of phase at least minPhase that
// leave the endpoint, and how many of them carry no bytes.
type countingEndpoint struct {
	transport.Endpoint
	minPhase    int
	sent, empty *atomic.Int64
}

func (e countingEndpoint) Send(dst int, m transport.Message) error {
	p2p := m
	p2p.Kind = transport.P2P // the device marks it on the way out
	if phase, ok := mpi.CollPhase(p2p); ok && phase >= e.minPhase {
		e.sent.Add(1)
		if len(m.Payload) == 0 {
			e.empty.Add(1)
		}
	}
	return e.Endpoint.Send(dst, m)
}

// TestReduceHalving runs the recursive-halving reduce-scatter among a
// rotated group of every power-of-two size from 2 to 64, on uneven
// regions, on sparse ones (fewer elements than regions, front-loaded as
// the chunked allreduce's slices are) and on no bytes at all: each
// region's owner must hold the serial int32 sum, no message of no bytes
// may leave any rank, and a rank sends at most log2(size) messages —
// exactly that many where no region is empty, none where all are.
func TestReduceHalving(t *testing.T) {
	const phase = 10
	layouts := map[string]func(k, size int) int{ // int32 elements of region k
		"full":   func(k, size int) int { return 2 },
		"uneven": func(k, size int) int { return (k*5 + 3) % 4 },
		"sparse": func(k, size int) int { return min(1, max(0, size/3-k)) },
		"empty":  func(k, size int) int { return 0 },
	}
	for size := 2; size <= 64; size *= 2 {
		for name, elems := range layouts {
			offs := make([]int, size+1)
			for k := range size {
				offs[k+1] = offs[k] + 4*elems(k, size)
			}
			group := make([]int, size)
			for k := range group {
				group[k] = (k + 1) % size
			}
			var sent, empty atomic.Int64
			net := transport.NewMemNet(size)
			eps := make([]transport.Endpoint, size)
			for r := range eps {
				eps[r] = countingEndpoint{net.Endpoint(r), phase, &sent, &empty}
			}
			err := mpi.RunEndpoints(eps, mpi.Algorithms{}, func(c *mpi.Comm) error {
				buf := make([]byte, offs[size])
				for i := 0; i < len(buf); i += 4 {
					binary.BigEndian.PutUint32(buf[i:], uint32((c.Rank()+1)*(i/4+1)))
				}
				if err := mpi.ReduceHalving(c.BeginColl(), group, offs, phase, false, buf, mpi.Int32, mpi.OpSum); err != nil {
					return err
				}
				k := slices.Index(group, c.Rank())
				for i := offs[k]; i < offs[k+1]; i += 4 {
					want := size * (size + 1) / 2 * (i/4 + 1)
					if got := int32(binary.BigEndian.Uint32(buf[i:])); got != int32(want) {
						return fmt.Errorf("region %d: element at byte %d is %d, want %d", k, i, got, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size %d, %s: %v", size, name, err)
			}
			steps := int64(bits.Len(uint(size)) - 1)
			if empty.Load() != 0 {
				t.Errorf("size %d, %s: %d messages of no bytes", size, name, empty.Load())
			}
			switch got, most := sent.Load(), int64(size)*steps; {
			case name == "full" && got != most, name == "empty" && got != 0, got > most:
				t.Errorf("size %d, %s: %d messages, at most %d (log2 size per rank)", size, name, got, most)
			}
		}
	}
}

// TestReduceHalvingRejects: a contribution of the wrong length is an
// error, as in ReduceWalks, and so is a group that is not a power of two
// or offsets that do not match it — before anything is sent.
func TestReduceHalvingRejects(t *testing.T) {
	offs := []int{0, 8, 16}
	err := mpi.RunMem(2, mpi.Algorithms{}, func(c *mpi.Comm) error {
		cc := c.BeginColl()
		if c.Rank() == 1 {
			return cc.Send(0, 0, make([]byte, 4), transport.ClassData, false)
		}
		buf := make([]byte, offs[2])
		if err := mpi.ReduceHalving(cc, []int{0, 1}, offs, 0, false, buf, mpi.Int32, mpi.OpSum); err == nil {
			return fmt.Errorf("a 4-byte contribution to an 8-byte half was accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var sent, empty atomic.Int64
	net := transport.NewMemNet(3)
	eps := make([]transport.Endpoint, 3)
	for r := range eps {
		eps[r] = countingEndpoint{net.Endpoint(r), 0, &sent, &empty}
	}
	err = mpi.RunEndpoints(eps, mpi.Algorithms{}, func(c *mpi.Comm) error {
		buf := make([]byte, 24)
		cc := c.BeginColl()
		if err := mpi.ReduceHalving(cc, []int{0, 1, 2}, []int{0, 8, 16, 24}, 0, false, buf, mpi.Int32, mpi.OpSum); err == nil {
			return fmt.Errorf("a group of 3 was accepted")
		}
		if err := mpi.ReduceHalving(cc, []int{0, 1}, offs[:2], 0, false, buf, mpi.Int32, mpi.OpSum); err == nil {
			return fmt.Errorf("2 offsets for a group of 2 were accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent.Load() != 0 {
		t.Errorf("rejected calls sent %d messages", sent.Load())
	}
}

// TestGatherTree runs the three gather trees — a star toward a middle
// rank, the Binomial tree over a rotated group (whose subtrees' slots do
// not lie end to end, so blocks are copies) and over rank order (where
// they do), and the nested tree over segments of three toward the last
// rank — at N ∈ {1, 2, 3, 5, 8, 13, 16}, with uneven slots, with every
// third slot empty and with no bytes at all. The root must hold every
// rank's slot, and every edge carries exactly one message, an empty one
// where the subtree has no bytes (N-1 of them at M=0).
func TestGatherTree(t *testing.T) {
	const phase = 10
	layouts := map[string]func(r int) int{ // bytes of rank r's slot
		"uneven": func(r int) int { return (r*5+3)%7 + 1 },
		"empty":  func(r int) int { return r % 3 * 4 },
		"zero":   func(int) int { return 0 },
	}
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16} {
		rotated := make([]int, n)
		for k := range rotated {
			rotated[k] = (k + 2) % n
		}
		trees := []struct {
			name string
			tree mpi.Tree
			root int
		}{
			{"star", mpi.Star(n/2, nil), n / 2},
			{"binomial", mpi.BinomialTree(rotated), rotated[0]},
			{"binomial-ordered", mpi.BinomialTree(rankOrder(n)), 0},
			{"nested", mpi.Nested(n-1, topo.Uniform(n, 3)), n - 1},
		}
		for _, tc := range trees {
			for lname, bytes := range layouts {
				name := fmt.Sprintf("n=%d/%s/%s", n, tc.name, lname)
				off := make([]int, n+1)
				for r := range n {
					off[r+1] = off[r] + bytes(r)
				}
				var sent, empty atomic.Int64
				net := transport.NewMemNet(n)
				eps := make([]transport.Endpoint, n)
				for r := range eps {
					eps[r] = countingEndpoint{net.Endpoint(r), phase, &sent, &empty}
				}
				err := runWithin(t, eps, func(c *mpi.Comm) error {
					buf := make([]byte, off[n])
					slot := func(r int) []byte { return buf[off[r]:off[r+1]] }
					for i := range slot(c.Rank()) {
						slot(c.Rank())[i] = byte(31*c.Rank() + i + 1)
					}
					if err := mpi.GatherTree(c.BeginColl(), tc.tree, phase, false, slot); err != nil || c.Rank() != tc.root {
						return err
					}
					for r := range n {
						for i, b := range slot(r) {
							if b != byte(31*r+i+1) {
								return fmt.Errorf("rank %d's slot byte %d is %d at the root, want %d", r, i, b, byte(31*r+i+1))
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if sent.Load() != int64(n-1) {
					t.Errorf("%s: %d messages, want one per edge, N-1 = %d", name, sent.Load(), n-1)
				}
				if lname == "zero" && empty.Load() != int64(n-1) {
					t.Errorf("%s: %d empty messages, want N-1 = %d", name, empty.Load(), n-1)
				}
			}
		}
	}
}

// rankOrder returns the ranks 0 … n-1 in order.
func rankOrder(n int) []int {
	ranks := make([]int, n)
	for r := range ranks {
		ranks[r] = r
	}
	return ranks
}

// TestGatherTreeRejects: a rank outside the tree, a block of the wrong
// length and a block from a rank that is not the receiver's child each
// return an error at the rank that calls GatherTree, wrapping
// ErrInvalidRank or ErrBufferSize, at once: no world hangs, and that
// rank sends nothing.
func TestGatherTreeRejects(t *testing.T) {
	slot := func(int) []byte { return make([]byte, 8) }
	for _, tc := range []struct {
		name  string
		n     int
		tree  mpi.Tree
		from  int // the rank that sends rank 0 a block by hand, or -1
		bytes int
		want  error
	}{
		{"outside a star", 3, mpi.Star(1, []int{1, 2}), -1, 0, mpi.ErrInvalidRank},
		{"outside a binomial tree", 3, mpi.BinomialTree([]int{1, 2}), -1, 0, mpi.ErrInvalidRank},
		{"wrong size", 2, mpi.Star(0, nil), 1, 4, mpi.ErrBufferSize},
		// Position 3 of the Binomial tree over 0..3 is position 2's child.
		{"not a child", 4, mpi.BinomialTree(rankOrder(4)), 3, 8, mpi.ErrInvalidRank},
	} {
		var sent, empty atomic.Int64
		net := transport.NewMemNet(tc.n)
		eps := make([]transport.Endpoint, tc.n)
		for r := range eps {
			eps[r] = net.Endpoint(r)
		}
		eps[0] = countingEndpoint{eps[0], 0, &sent, &empty}
		err := runWithin(t, eps, func(c *mpi.Comm) error {
			cc := c.BeginColl()
			switch c.Rank() {
			case 0:
				return mpi.GatherTree(cc, tc.tree, 0, false, slot)
			case tc.from:
				return cc.Send(0, 0, make([]byte, tc.bytes), transport.ClassData, false)
			}
			return nil
		})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want an error wrapping %v", tc.name, err, tc.want)
		}
		if sent.Load() != 0 {
			t.Errorf("%s: the rejecting rank sent %d messages", tc.name, sent.Load())
		}
	}
}

// runWithin runs fn on a world over eps and fails the test, instead of
// hanging it, when the world has not returned within 10 s.
func runWithin(t *testing.T, eps []transport.Endpoint, fn func(c *mpi.Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- mpi.RunEndpoints(eps, mpi.Algorithms{}, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("the gather hung")
		return nil
	}
}
