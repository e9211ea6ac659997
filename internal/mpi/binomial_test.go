package mpi_test

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
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
