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
