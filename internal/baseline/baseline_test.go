package baseline_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/mpi"
)

func TestBinomialBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		for root := 0; root < n; root++ {
			want := []byte(fmt.Sprintf("binomial-%d-%d", n, root))
			err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
				buf := make([]byte, len(want))
				if c.Rank() == root {
					copy(buf, want)
				}
				if err := c.Bcast(buf, root); err != nil {
					return err
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("rank %d has %q", c.Rank(), buf)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestThreePhaseBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
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

func TestBinomialReduceMatchesNaive(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for root := 0; root < n; root++ {
			err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
				send := mpi.Int64sToBytes([]int64{int64(c.Rank() + 1), int64(c.Rank() * c.Rank())})
				recv := make([]byte, len(send))
				if err := c.Reduce(send, recv, mpi.Int64, mpi.OpSum, root); err != nil {
					return err
				}
				if c.Rank() == root {
					got := mpi.BytesToInt64s(recv)
					var wantA, wantB int64
					for r := 0; r < n; r++ {
						wantA += int64(r + 1)
						wantB += int64(r * r)
					}
					if got[0] != wantA || got[1] != wantB {
						return fmt.Errorf("reduce = %v, want [%d %d]", got, wantA, wantB)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestBinomialReduceMaxMin(t *testing.T) {
	err := mpi.RunMem(7, baseline.Algorithms(), func(c *mpi.Comm) error {
		send := mpi.Int32sToBytes([]int32{int32(c.Rank()), -int32(c.Rank())})
		recv := make([]byte, len(send))
		if err := c.Reduce(send, recv, mpi.Int32, mpi.OpMax, 3); err != nil {
			return err
		}
		if c.Rank() == 3 {
			got := mpi.BytesToInt32s(recv)
			if got[0] != 6 || got[1] != 0 {
				return fmt.Errorf("max = %v", got)
			}
		}
		if err := c.Reduce(send, recv, mpi.Int32, mpi.OpMin, 3); err != nil {
			return err
		}
		if c.Rank() == 3 {
			got := mpi.BytesToInt32s(recv)
			if got[0] != 0 || got[1] != -6 {
				return fmt.Errorf("min = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			send := mpi.Float64sToBytes([]float64{1, float64(c.Rank())})
			recv := make([]byte, len(send))
			if err := c.Allreduce(send, recv, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			got := mpi.BytesToFloat64s(recv)
			if got[0] != float64(n) || got[1] != float64(n*(n-1)/2) {
				return fmt.Errorf("rank %d allreduce = %v", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestGatherScatter(t *testing.T) {
	const chunk = 4
	for _, n := range []int{1, 3, 6} {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			root := n / 2
			var full []byte
			if c.Rank() == root {
				full = make([]byte, chunk*n)
				for i := range full {
					full[i] = byte(i + 1)
				}
			}
			part := make([]byte, chunk)
			if err := c.Scatter(full, part, root); err != nil {
				return err
			}
			for i := range part {
				if part[i] != byte(c.Rank()*chunk+i+1) {
					return fmt.Errorf("rank %d scatter wrong", c.Rank())
				}
			}
			var back []byte
			if c.Rank() == root {
				back = make([]byte, chunk*n)
			}
			if err := c.Gather(part, back, root); err != nil {
				return err
			}
			if c.Rank() == root && !bytes.Equal(back, full) {
				return fmt.Errorf("gather != scatter input")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRingAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			send := []byte{byte(c.Rank() + 1), byte(c.Rank() + 100)}
			recv := make([]byte, 2*n)
			if err := c.Allgather(send, recv); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if recv[2*r] != byte(r+1) || recv[2*r+1] != byte(r+100) {
					return fmt.Errorf("rank %d allgather = %v", c.Rank(), recv)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPairwiseAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			send := make([]byte, 2*n)
			for i := 0; i < n; i++ {
				send[2*i] = byte(c.Rank())
				send[2*i+1] = byte(i)
			}
			recv := make([]byte, 2*n)
			if err := c.Alltoall(send, recv); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if recv[2*r] != byte(r) || recv[2*r+1] != byte(c.Rank()) {
					return fmt.Errorf("rank %d alltoall = %v", c.Rank(), recv)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestAlltoallRejectsWrongChunkSize: ranks that disagree on the chunk
// size must both fail instead of filling recv with a short or a
// misaligned chunk. Two ranks only: at N >= 3 a rank that returns early
// leaves a peer blocked in a later round on a device with no failure
// detector.
func TestAlltoallRejectsWrongChunkSize(t *testing.T) {
	errs := make([]error, 2)
	err := mpi.RunMem(2, baseline.Algorithms(), func(c *mpi.Comm) error {
		n := 4
		if c.Rank() == 1 {
			n = 2
		}
		send := bytes.Repeat([]byte{byte(c.Rank() + 1)}, 2*n)
		errs[c.Rank()] = c.Alltoall(send, make([]byte, 2*n))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d accepted a chunk of the wrong size", r)
		}
	}
}

// Property: binomial broadcast leaves the root's payload on every rank
// for random payloads, sizes and roots.
func TestBcastAgreesWithNaiveProperty(t *testing.T) {
	f := func(payload []byte, ns, rs uint8) bool {
		n := int(ns)%8 + 1
		root := int(rs) % n
		ok := true
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			buf := make([]byte, len(payload))
			if c.Rank() == root {
				copy(buf, payload)
			}
			if err := c.Bcast(buf, root); err != nil {
				return err
			}
			if !bytes.Equal(buf, payload) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Mixed workload stress: many collectives back to back over one world.
func TestCollectiveStressSequence(t *testing.T) {
	err := mpi.RunMem(6, baseline.Algorithms(), func(c *mpi.Comm) error {
		n := c.Size()
		for k := 0; k < 10; k++ {
			root := k % n
			buf := bytes.Repeat([]byte{byte(k)}, 64)
			if err := c.Bcast(buf, root); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			send := mpi.Int64sToBytes([]int64{int64(k + c.Rank())})
			recv := make([]byte, len(send))
			if err := c.Allreduce(send, recv, mpi.Int64, mpi.OpSum); err != nil {
				return err
			}
			want := int64(n*k + n*(n-1)/2)
			if got := mpi.BytesToInt64s(recv)[0]; got != want {
				return fmt.Errorf("round %d: allreduce = %d, want %d", k, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
