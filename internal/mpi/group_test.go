package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/mpi"
)

func TestDupIndependentContext(t *testing.T) {
	err := mpi.RunMem(3, baseline.Algorithms(), func(c *mpi.Comm) error {
		d1, err := c.Dup()
		if err != nil {
			return err
		}
		d2, err := c.Dup()
		if err != nil {
			return err
		}
		if d1.Context() == c.Context() || d2.Context() == c.Context() || d1.Context() == d2.Context() {
			return fmt.Errorf("contexts not distinct: %d %d %d", c.Context(), d1.Context(), d2.Context())
		}
		if d1.Rank() != c.Rank() || d1.Size() != c.Size() {
			return fmt.Errorf("dup changed rank/size")
		}
		// Collectives on all three must interleave safely.
		buf := []byte{0}
		if c.Rank() == 0 {
			buf[0] = 1
		}
		if err := d1.Bcast(buf, 0); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := d2.Bcast(buf, 0); err != nil {
			return err
		}
		if buf[0] != 1 {
			return fmt.Errorf("bcast through dups corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDupContextAgreesAcrossRanks(t *testing.T) {
	// All ranks must derive the same context id; verify by running a
	// collective over the dup (would deadlock or mismatch otherwise) and
	// by broadcasting rank 0's context for comparison.
	err := mpi.RunMem(4, baseline.Algorithms(), func(c *mpi.Comm) error {
		d, err := c.Dup()
		if err != nil {
			return err
		}
		ctx := make([]byte, 4)
		if c.Rank() == 0 {
			v := d.Context()
			ctx[0], ctx[1], ctx[2], ctx[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		}
		if err := c.Bcast(ctx, 0); err != nil {
			return err
		}
		v := uint32(ctx[0])<<24 | uint32(ctx[1])<<16 | uint32(ctx[2])<<8 | uint32(ctx[3])
		if v != d.Context() {
			return fmt.Errorf("rank %d derived context %d, rank 0 derived %d", c.Rank(), d.Context(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitEvenOdd(t *testing.T) {
	err := mpi.RunMem(6, baseline.Algorithms(), func(c *mpi.Comm) error {
		color := c.Rank() % 2
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if sub == nil {
			return fmt.Errorf("rank %d got nil subcomm", c.Rank())
		}
		if sub.Size() != 3 {
			return fmt.Errorf("subcomm size = %d, want 3", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			return fmt.Errorf("rank %d has subrank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		// The two halves run independent reductions concurrently.
		send := mpi.Int64sToBytes([]int64{int64(c.Rank())})
		recv := make([]byte, len(send))
		if err := sub.Allreduce(send, recv, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		got := mpi.BytesToInt64s(recv)[0]
		want := int64(0 + 2 + 4)
		if color == 1 {
			want = 1 + 3 + 5
		}
		if got != want {
			return fmt.Errorf("rank %d split-allreduce = %d, want %d", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	err := mpi.RunMem(4, baseline.Algorithms(), func(c *mpi.Comm) error {
		// Reverse the order via descending keys.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		want := c.Size() - 1 - c.Rank()
		if sub.Rank() != want {
			return fmt.Errorf("rank %d got subrank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	err := mpi.RunMem(3, baseline.Algorithms(), func(c *mpi.Comm) error {
		color := 0
		if c.Rank() == 2 {
			color = -1 // opts out
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			if sub != nil {
				return fmt.Errorf("opted-out rank received a communicator")
			}
			return nil
		}
		if sub == nil || sub.Size() != 2 {
			return fmt.Errorf("rank %d sub = %v", c.Rank(), sub)
		}
		return sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubcommRankTranslation(t *testing.T) {
	err := mpi.RunMem(5, baseline.Algorithms(), func(c *mpi.Comm) error {
		// Ranks 1,3 form a subcomm; subrank i maps to world rank 2i+1.
		color := -1
		if c.Rank()%2 == 1 {
			color = 0
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if sub == nil {
			return nil
		}
		for i := 0; i < sub.Size(); i++ {
			if sub.WorldRank(i) != 2*i+1 {
				return fmt.Errorf("subrank %d maps to world %d", i, sub.WorldRank(i))
			}
		}
		// Point-to-point within the subcomm uses subcomm ranks.
		if sub.Rank() == 0 {
			return sub.Send(1, 4, []byte("sub"))
		}
		buf := make([]byte, 3)
		st, err := sub.Recv(0, 4, buf)
		if err != nil {
			return err
		}
		if st.Source != 0 || string(buf) != "sub" {
			return fmt.Errorf("subcomm p2p wrong: %+v %q", st, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFreeLeavesGroup(t *testing.T) {
	err := mpi.RunMem(2, baseline.Algorithms(), func(c *mpi.Comm) error {
		d, err := c.Dup()
		if err != nil {
			return err
		}
		if err := d.Barrier(); err != nil {
			return err
		}
		// Barrier on the parent guarantees no traffic is in flight on
		// the dup before anyone leaves its group.
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := d.Free(); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
