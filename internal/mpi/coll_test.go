package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// sizes exercised for every collective.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8}

func TestNaiveBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d/root=%d", n, root), func(t *testing.T) {
				want := []byte(fmt.Sprintf("payload-from-%d", root))
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
					t.Fatal(err)
				}
			})
		}
	}
}

func TestNaiveBarrierCount(t *testing.T) {
	// Every rank increments before the barrier; after the barrier all
	// ranks must observe the full count.
	for _, n := range worldSizes {
		var entered atomic.Int32
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			entered.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := entered.Load(); got != int32(n) {
				return fmt.Errorf("rank %d exited barrier with %d/%d entered", c.Rank(), got, n)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestReduceSumInt64(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root += 2 {
			err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
				vals := []int64{int64(c.Rank() + 1), int64(c.Rank() * 10)}
				send := mpi.Int64sToBytes(vals)
				recv := make([]byte, len(send))
				if err := c.Reduce(send, recv, mpi.Int64, mpi.OpSum, root); err != nil {
					return err
				}
				if c.Rank() == root {
					got := mpi.BytesToInt64s(recv)
					wantA := int64(n * (n + 1) / 2)
					wantB := int64(10 * n * (n - 1) / 2)
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

func TestReduceMaxMinProdFloat64(t *testing.T) {
	err := mpi.RunMem(5, baseline.Algorithms(), func(c *mpi.Comm) error {
		v := float64(c.Rank() + 1)
		send := mpi.Float64sToBytes([]float64{v, -v, v})
		recv := make([]byte, len(send))
		// Max
		if err := c.Reduce(send, recv, mpi.Float64, mpi.OpMax, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := mpi.BytesToFloat64s(recv)
			if got[0] != 5 || got[1] != -1 {
				return fmt.Errorf("max = %v", got)
			}
		}
		// Min
		if err := c.Reduce(send, recv, mpi.Float64, mpi.OpMin, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := mpi.BytesToFloat64s(recv)
			if got[0] != 1 || got[1] != -5 {
				return fmt.Errorf("min = %v", got)
			}
		}
		// Prod
		if err := c.Reduce(send, recv, mpi.Float64, mpi.OpProd, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := mpi.BytesToFloat64s(recv)
			if got[0] != 120 {
				return fmt.Errorf("prod = %v, want 120", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMatchesReducePlusBcast(t *testing.T) {
	err := mpi.RunMem(6, baseline.Algorithms(), func(c *mpi.Comm) error {
		send := mpi.Int32sToBytes([]int32{int32(c.Rank()), 1})
		recv := make([]byte, len(send))
		if err := c.Allreduce(send, recv, mpi.Int32, mpi.OpSum); err != nil {
			return err
		}
		got := mpi.BytesToInt32s(recv)
		if got[0] != 15 || got[1] != 6 {
			return fmt.Errorf("rank %d allreduce = %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	const chunk = 6
	for _, n := range worldSizes {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			// Scatter from last rank, then gather back to rank 0.
			root := c.Size() - 1
			var full []byte
			if c.Rank() == root {
				full = make([]byte, chunk*c.Size())
				for i := range full {
					full[i] = byte(i)
				}
			}
			part := make([]byte, chunk)
			if err := c.Scatter(full, part, root); err != nil {
				return err
			}
			for i := range part {
				if part[i] != byte(c.Rank()*chunk+i) {
					return fmt.Errorf("rank %d scatter chunk wrong at %d", c.Rank(), i)
				}
			}
			var back []byte
			if c.Rank() == 0 {
				back = make([]byte, chunk*c.Size())
			}
			if err := c.Gather(part, back, 0); err != nil {
				return err
			}
			if c.Rank() == 0 {
				for i := range back {
					if back[i] != byte(i) {
						return fmt.Errorf("gather result wrong at %d", i)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllgather(t *testing.T) {
	err := mpi.RunMem(4, baseline.Algorithms(), func(c *mpi.Comm) error {
		send := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
		recv := make([]byte, 2*c.Size())
		if err := c.Allgather(send, recv); err != nil {
			return err
		}
		for r := 0; r < c.Size(); r++ {
			if recv[2*r] != byte(r) || recv[2*r+1] != byte(2*r) {
				return fmt.Errorf("rank %d allgather = %v", c.Rank(), recv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			send := make([]byte, n)
			for i := range send {
				send[i] = byte(c.Rank()*10 + i)
			}
			recv := make([]byte, n)
			if err := c.Alltoall(send, recv); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if recv[r] != byte(r*10+c.Rank()) {
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

func TestBcastInvalidRoot(t *testing.T) {
	err := mpi.RunMem(2, baseline.Algorithms(), func(c *mpi.Comm) error {
		if err := c.Bcast(nil, 5); !errors.Is(err, mpi.ErrInvalidRank) {
			return fmt.Errorf("bcast root 5: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnsetOperationIsAnError: a set that leaves an operation nil makes
// that collective fail on every rank with an error that wraps
// ErrNoAlgorithm and names the op — there is no fallback to run instead —
// while the operations the set does name still run.
func TestUnsetOperationIsAnError(t *testing.T) {
	buf := func() []byte { return make([]byte, 24) }
	ops := []struct {
		name  string
		unset func(a *mpi.Algorithms)
		call  func(c *mpi.Comm) error
	}{
		{"bcast", func(a *mpi.Algorithms) { a.Bcast = nil },
			func(c *mpi.Comm) error { return c.Bcast(buf(), 0) }},
		{"barrier", func(a *mpi.Algorithms) { a.Barrier = nil },
			func(c *mpi.Comm) error { return c.Barrier() }},
		{"reduce", func(a *mpi.Algorithms) { a.Reduce = nil },
			func(c *mpi.Comm) error { return c.Reduce(buf(), buf(), mpi.Int64, mpi.OpSum, 0) }},
		{"allreduce", func(a *mpi.Algorithms) { a.Allreduce = nil },
			func(c *mpi.Comm) error { return c.Allreduce(buf(), buf(), mpi.Int64, mpi.OpSum) }},
		{"gather", func(a *mpi.Algorithms) { a.Gather = nil },
			func(c *mpi.Comm) error { return c.Gather(buf()[:8], buf(), 0) }},
		{"scatter", func(a *mpi.Algorithms) { a.Scatter = nil },
			func(c *mpi.Comm) error { return c.Scatter(buf(), buf()[:8], 0) }},
		{"allgather", func(a *mpi.Algorithms) { a.Allgather = nil },
			func(c *mpi.Comm) error { return c.Allgather(buf()[:8], buf()) }},
		{"alltoall", func(a *mpi.Algorithms) { a.Alltoall = nil },
			func(c *mpi.Comm) error { return c.Alltoall(buf(), buf()) }},
		{"scan", func(a *mpi.Algorithms) { a.Scan = nil },
			func(c *mpi.Comm) error { return c.Scan(buf(), buf(), mpi.Int64, mpi.OpSum) }},
		{"reduce_scatter", func(a *mpi.Algorithms) { a.ReduceScatter = nil },
			func(c *mpi.Comm) error { return c.ReduceScatter(buf(), buf()[:8], mpi.Int64, mpi.OpSum) }},
	}
	for i, op := range ops {
		algs := baseline.Algorithms()
		op.unset(&algs)
		// Any other op of the set, to show the rest of it still runs.
		other := ops[(i+1)%len(ops)]
		err := mpi.RunMem(3, algs, func(c *mpi.Comm) error {
			err := op.call(c)
			if !errors.Is(err, mpi.ErrNoAlgorithm) || err.Error() != mpi.ErrNoAlgorithm.Error()+": "+op.name {
				return fmt.Errorf("unset %s: %v, want ErrNoAlgorithm naming it", op.name, err)
			}
			return other.call(c)
		})
		if err != nil {
			t.Errorf("%s: %v", op.name, err)
		}
	}
	err := mpi.RunMem(2, mpi.Algorithms{}, func(c *mpi.Comm) error {
		if _, err := c.Split(0, 0); !errors.Is(err, mpi.ErrNoAlgorithm) {
			return fmt.Errorf("split without an allgather: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

// TestScanAndReduceScatterAreMetered: the two dispatchers open the same
// op span as the other eight, so each call counts once in mcast_coll_ops
// and lands in mcast_coll_latency_us under its op name.
func TestScanAndReduceScatterAreMetered(t *testing.T) {
	reg := metrics.NewRegistry()
	prof := simnet.DefaultProfile()
	prof.Metrics = reg
	algs := baseline.Algorithms()
	algs.Name = "mpich"
	_, err := cluster.RunSim(4, simnet.Switch, prof, algs, func(c *mpi.Comm) error {
		send := mpi.Int64sToBytes([]int64{1, 2, 3, 4})
		if err := c.Scan(send, make([]byte, len(send)), mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		return c.ReduceScatter(send, make([]byte, len(send)/c.Size()), mpi.Int64, mpi.OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	for _, op := range []string{"scan", "reduce_scatter"} {
		// Every rank's runtime shares the one registry: one call per rank.
		if got := s.Counters[metrics.Labeled("mcast_coll_ops", "op", op, "alg", "mpich")]; got != 4 {
			t.Errorf("mcast_coll_ops{op=%s} = %d, want 4 (one per rank)", op, got)
		}
		if h := s.Histograms[metrics.Labeled("mcast_coll_latency_us", "op", op, "alg", "mpich")]; h.Count != 4 {
			t.Errorf("mcast_coll_latency_us{op=%s} holds %d observations, want 4", op, h.Count)
		}
	}
}

func TestBackToBackCollectivesStaySeparate(t *testing.T) {
	// Many broadcasts in a row with different payload sizes: sequence
	// numbers must keep them matched up.
	err := mpi.RunMem(3, baseline.Algorithms(), func(c *mpi.Comm) error {
		for k := 0; k < 20; k++ {
			root := k % c.Size()
			want := bytes.Repeat([]byte{byte(k)}, k+1)
			buf := make([]byte, k+1)
			if c.Rank() == root {
				copy(buf, want)
			}
			if err := c.Bcast(buf, root); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("bcast %d corrupted on rank %d", k, c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceBytesProperty(t *testing.T) {
	// Reduction over bytes is associative-commutative for sum modulo 256;
	// verify ReduceBytes agrees with a scalar fold.
	f := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		acc := append([]byte(nil), a...)
		if err := mpi.ReduceBytes(mpi.OpSum, mpi.Byte, acc, b); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if acc[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceBytesLengthMismatch(t *testing.T) {
	if err := mpi.ReduceBytes(mpi.OpSum, mpi.Int64, make([]byte, 8), make([]byte, 16)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := mpi.ReduceBytes(mpi.OpSum, mpi.Int64, make([]byte, 7), make([]byte, 7)); err == nil {
		t.Fatal("non-multiple buffer accepted")
	}
}

func TestTypedCodecRoundTrips(t *testing.T) {
	f64 := func(vs []float64) bool {
		got := mpi.BytesToFloat64s(mpi.Float64sToBytes(vs))
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			// NaN-safe comparison via bit patterns is what the codec
			// guarantees; quick never generates NaN, so == suffices.
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f64, nil); err != nil {
		t.Fatal(err)
	}
	i64 := func(vs []int64) bool {
		got := mpi.BytesToInt64s(mpi.Int64sToBytes(vs))
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(i64, nil); err != nil {
		t.Fatal(err)
	}
	i32 := func(vs []int32) bool {
		got := mpi.BytesToInt32s(mpi.Int32sToBytes(vs))
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(i32, nil); err != nil {
		t.Fatal(err)
	}
}
