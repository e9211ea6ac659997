package baseline

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// Scan is the recursive-doubling inclusive prefix reduction: in step k
// every rank sends its running partial (covering the 2^k ranks ending at
// itself) to rank+2^k and folds in the partial from rank-2^k, finishing
// in ceil(log2 N) steps instead of a chain's N-1.
func Scan(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
	cc := c.BeginColl()
	size, rank := c.Size(), c.Rank()
	partial := append([]byte(nil), send...)
	for mask, phase := 1, 0; mask < size; mask, phase = mask<<1, phase+1 {
		if rank+mask < size {
			if err := cc.Send(rank+mask, phase, partial, transport.ClassData, true); err != nil {
				return err
			}
		}
		if rank-mask >= 0 {
			m, err := cc.Recv(rank-mask, phase)
			if err != nil {
				return err
			}
			if len(m.Payload) != len(send) {
				return fmt.Errorf("baseline: scan partial from %d is %d bytes, want %d", rank-mask, len(m.Payload), len(send))
			}
			// Earlier ranks' partial combines on the left.
			left := append([]byte(nil), m.Payload...)
			if err := mpi.ReduceBytes(op, dt, left, partial); err != nil {
				return err
			}
			partial = left
		}
	}
	copy(recv, partial)
	return nil
}

// ReduceScatter is the pairwise-exchange algorithm: in round i every rank
// sends the chunk destined for rank+i and receives (and folds in) its own
// chunk's contribution from rank-i. N-1 rounds, and unlike a reduce to
// one root followed by a scatter no rank ever holds the full reduced
// vector.
func ReduceScatter(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
	size, rank := c.Size(), c.Rank()
	n := len(recv)
	cc := c.BeginColl()
	acc := append([]byte(nil), send[rank*n:(rank+1)*n]...)
	for i := 1; i < size; i++ {
		dst := (rank + i) % size
		src := (rank - i + size) % size
		if err := cc.Send(dst, i, send[dst*n:(dst+1)*n], transport.ClassData, true); err != nil {
			return err
		}
		m, err := cc.Recv(src, i)
		if err != nil {
			return err
		}
		if len(m.Payload) != n {
			return fmt.Errorf("baseline: reduce-scatter chunk from %d is %d bytes, want %d", src, len(m.Payload), n)
		}
		if err := mpi.ReduceBytes(op, dt, acc, m.Payload); err != nil {
			return err
		}
	}
	copy(recv, acc)
	return nil
}
