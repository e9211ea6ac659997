package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mpi"
)

var bcastImpls = []struct {
	name string
	fn   func(c *mpi.Comm, buf []byte, root int) error
}{
	{"binary", core.Algorithms(core.Binary).Bcast},
	{"linear", core.Algorithms(core.Linear).Bcast},
	{"sequencer", core.BcastSequencer},
	{"ack", core.BcastAck},
}

func TestMulticastBcastAllSizesAllRoots(t *testing.T) {
	for _, impl := range bcastImpls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
				for root := 0; root < n; root++ {
					want := []byte(fmt.Sprintf("%s-%d-%d", impl.name, n, root))
					algs := mpi.Algorithms{Bcast: impl.fn}
					err := mpi.RunMem(n, algs, func(c *mpi.Comm) error {
						buf := make([]byte, len(want))
						if c.Rank() == root {
							copy(buf, want)
						}
						if err := c.Bcast(buf, root); err != nil {
							return err
						}
						if !bytes.Equal(buf, want) {
							return fmt.Errorf("rank %d has %q, want %q", c.Rank(), buf, want)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("n=%d root=%d: %v", n, root, err)
					}
				}
			}
		})
	}
}

func TestMulticastBcastLargePayload(t *testing.T) {
	want := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 4000) // 20 kB, many fragments
	err := mpi.RunMem(5, core.Algorithms(core.Binary), func(c *mpi.Comm) error {
		buf := make([]byte, len(want))
		if c.Rank() == 2 {
			copy(buf, want)
		}
		if err := c.Bcast(buf, 2); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d corrupted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMulticastBarrierCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 9} {
		err := mpi.RunMem(n, core.Algorithms(core.Binary), func(c *mpi.Comm) error {
			for i := 0; i < 3; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestBarrierLinearCompletes runs the mcast-linear set's barrier, which
// gathers its scouts up the binary tree like every set's: the paper
// gives the barrier one scout scheme.
func TestBarrierLinearCompletes(t *testing.T) {
	err := mpi.RunMem(6, core.Algorithms(core.Linear), func(c *mpi.Comm) error {
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: any payload, any root, any implementation — every rank ends
// with exactly the root's bytes.
func TestBcastProperty(t *testing.T) {
	f := func(payload []byte, rootSeed uint8, sizeSeed uint8) bool {
		n := int(sizeSeed)%7 + 2
		root := int(rootSeed) % n
		for _, impl := range bcastImpls {
			algs := mpi.Algorithms{Bcast: impl.fn}
			err := mpi.RunMem(n, algs, func(c *mpi.Comm) error {
				buf := make([]byte, len(payload))
				if c.Rank() == root {
					copy(buf, payload)
				}
				if err := c.Bcast(buf, root); err != nil {
					return err
				}
				if !bytes.Equal(buf, payload) {
					return fmt.Errorf("mismatch")
				}
				return nil
			})
			if err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The paper's §4 ordering example: processes 6, 7, 8 broadcast to the
// same process group back to back; because each process cannot enter
// broadcast k+1 before completing broadcast k, the three broadcasts are
// delivered in program order on every rank.
func TestOrderingPaperSection4Example(t *testing.T) {
	for _, impl := range bcastImpls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			const n = 9
			roots := []int{6, 7, 8}
			algs := mpi.Algorithms{Bcast: impl.fn}
			err := mpi.RunMem(n, algs, func(c *mpi.Comm) error {
				var got []byte
				for k, root := range roots {
					buf := make([]byte, 1)
					if c.Rank() == root {
						buf[0] = byte(100 + k)
					}
					if err := c.Bcast(buf, root); err != nil {
						return err
					}
					got = append(got, buf[0])
				}
				for k := range roots {
					if got[k] != byte(100+k) {
						return fmt.Errorf("rank %d delivered %v out of order", c.Rank(), got)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Ordering across two multicast groups (two communicators): as the paper
// argues, with safe MPI code the order of broadcasts is preserved even
// when a process receives from two or more multicast groups.
func TestOrderingAcrossTwoGroups(t *testing.T) {
	const n = 6
	err := mpi.RunMem(n, core.Algorithms(core.Binary), func(c *mpi.Comm) error {
		// Group A: even ranks; group B: odd ranks. Every rank also stays
		// in the world group.
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		for k := 0; k < 5; k++ {
			// World broadcast interleaved with subgroup broadcast.
			wbuf := make([]byte, 1)
			if c.Rank() == 0 {
				wbuf[0] = byte(k)
			}
			if err := c.Bcast(wbuf, 0); err != nil {
				return err
			}
			sbuf := make([]byte, 1)
			if sub.Rank() == 0 {
				sbuf[0] = byte(10 + k)
			}
			if err := sub.Bcast(sbuf, 0); err != nil {
				return err
			}
			if wbuf[0] != byte(k) || sbuf[0] != byte(10+k) {
				return fmt.Errorf("rank %d round %d: world=%d sub=%d", c.Rank(), k, wbuf[0], sbuf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetsFallBackToBaseline checks that every core set is complete —
// no collective returns ErrNoAlgorithm — and runs the operations core
// has no multicast version of on package baseline's implementation.
func TestSetsFallBackToBaseline(t *testing.T) {
	for name, algs := range map[string]mpi.Algorithms{
		"binary":    core.Algorithms(core.Binary),
		"resilient": core.ResilientAlgorithms(),
		"2level":    core.TwoLevelAlgorithms(),
		"2level-r":  core.TwoLevelResilientAlgorithms(),
		"ack":       core.AckAlgorithms(),
		"sequencer": core.SequencerAlgorithms(),
	} {
		if algs.Bcast == nil || algs.Barrier == nil || algs.Reduce == nil || algs.Allreduce == nil ||
			algs.Gather == nil || algs.Scatter == nil || algs.Allgather == nil || algs.Alltoall == nil ||
			algs.Scan == nil || algs.ReduceScatter == nil {
			t.Fatalf("%s set incomplete", name)
		}
	}
	err := mpi.RunMem(4, core.Algorithms(core.Binary), func(c *mpi.Comm) error {
		send := mpi.Int64sToBytes([]int64{int64(c.Rank())})
		recv := make([]byte, len(send))
		if err := c.Reduce(send, recv, mpi.Int64, mpi.OpSum, 0); err != nil {
			return err
		}
		if got := mpi.BytesToInt64s(recv)[0]; c.Rank() == 0 && got != 6 {
			return fmt.Errorf("reduce = %d, want 6", got)
		}
		if err := c.Scan(send, recv, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		if got, want := mpi.BytesToInt64s(recv)[0], int64(c.Rank()*(c.Rank()+1)/2); got != want {
			return fmt.Errorf("rank %d scan = %d, want %d", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoreAllreduceExtension(t *testing.T) {
	err := mpi.RunMem(5, core.Algorithms(core.Binary), func(c *mpi.Comm) error {
		send := mpi.Float64sToBytes([]float64{float64(c.Rank() + 1)})
		recv := make([]byte, len(send))
		if err := c.Allreduce(send, recv, mpi.Float64, mpi.OpProd); err != nil {
			return err
		}
		if got := mpi.BytesToFloat64s(recv)[0]; got != 120 {
			return fmt.Errorf("rank %d allreduce prod = %v, want 120", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
