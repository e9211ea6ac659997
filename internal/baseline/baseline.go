// Package baseline implements the MPICH-style collective algorithms the
// paper measures against: every collective is built from point-to-point
// messages, exactly as "MPI implementations, including LAM and MPICH,
// generally implement MPI collective operations on top of MPI
// point-to-point operations" (§3).
//
// The two algorithms the paper describes in detail are reproduced
// faithfully:
//
//   - Broadcast uses the binomial tree of Fig. 2: with 7 processes and
//     root 0, process 0 sends to 4, 2 and 1; process 2 sends to 3;
//     process 4 sends to 5 and 6. A broadcast of M bytes with frame
//     payload T therefore moves ceil(M/T)·(N-1) data frames.
//
//   - Barrier uses the three-phase algorithm of Fig. 5: processes beyond
//     the largest power of two K fold into the K-subcube, the subcube
//     runs a pairwise hypercube exchange, and the folded processes are
//     released — 2(N-K) + K·log2(K) messages.
//
// All traffic is marked Reliable (the paper's MPICH ran point-to-point
// over TCP), which is what the simulator's TCPPenalty models.
package baseline

import (
	"fmt"
	"math/bits"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// Algorithms returns the full MPICH-style collective set.
func Algorithms() mpi.Algorithms {
	return mpi.Algorithms{
		Bcast:         Bcast,
		Barrier:       Barrier,
		Reduce:        Reduce,
		Allreduce:     Allreduce,
		Gather:        Gather,
		Scatter:       Scatter,
		Allgather:     Allgather,
		Alltoall:      Alltoall,
		Scan:          Scan,
		ReduceScatter: ReduceScatter,
	}
}

// Bcast is the MPICH binomial-tree broadcast over point-to-point sends.
func Bcast(c *mpi.Comm, buf []byte, root int) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	cc := c.BeginColl()
	parent, children := mpi.Binomial((c.Rank()-root+size)%size, size)
	if parent >= 0 {
		m, err := cc.Recv((parent+root)%size, 0)
		if err != nil {
			return err
		}
		if len(m.Payload) != len(buf) {
			return fmt.Errorf("baseline: bcast buffer %d bytes, message %d", len(buf), len(m.Payload))
		}
		copy(buf, m.Payload)
	}
	// Forward to the children, largest subtree first (root 0 of 7 sends
	// to 4, 2, then 1).
	for child := range children.Backward {
		if err := cc.Send((child+root)%size, 0, buf, transport.ClassData, true); err != nil {
			return err
		}
	}
	return nil
}

// Barrier is the MPICH three-phase barrier of the paper's Fig. 5.
func Barrier(c *mpi.Comm) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	cc := c.BeginColl()
	rank := c.Rank()
	log2k := bits.Len(uint(size)) - 1
	k := 1 << log2k // the largest power of two <= size

	// Phase 1: processes that do not fit the hypercube report in.
	if rank >= k {
		if err := cc.Send(rank-k, 0, nil, transport.ClassControl, true); err != nil {
			return err
		}
	} else if rank < size-k {
		if _, err := cc.Recv(rank+k, 0); err != nil {
			return err
		}
	}

	// Phase 2: pairwise exchange across each dimension of the hypercube.
	if rank < k {
		for bit, round := 1, 1; bit < k; bit, round = bit<<1, round+1 {
			partner := rank ^ bit
			if err := cc.Send(partner, round, nil, transport.ClassControl, true); err != nil {
				return err
			}
			if _, err := cc.Recv(partner, round); err != nil {
				return err
			}
		}
	}

	// Phase 3: release the folded processes.
	release := log2k + 1
	if rank < size-k {
		return cc.Send(rank+k, release, nil, transport.ClassControl, true)
	}
	if rank >= k {
		_, err := cc.Recv(rank-k, release)
		return err
	}
	return nil
}

// Reduce combines send buffers to root along the mirror of the broadcast
// binomial tree: one mpi.ReduceWalks region over the ranks rotated so
// that root comes first. What makes this the MPICH variant is the
// reliable (TCP-like) traffic class.
func Reduce(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op, root int) error {
	size := c.Size()
	group := make([]int, size)
	for i := range group {
		group[i] = (root + i) % size
	}
	acc := append([]byte(nil), send...)
	if err := mpi.ReduceWalks(c.BeginColl(), group, []int{0, len(acc)}, 0, true, acc, dt, op); err != nil || c.Rank() != root {
		return err
	}
	copy(recv, acc)
	return nil
}

// Allreduce is a binomial reduce to rank 0 followed by a binomial
// broadcast, MPICH's classic composition.
func Allreduce(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
	if err := Reduce(c, send, recv, dt, op, 0); err != nil {
		return err
	}
	return Bcast(c, recv, 0)
}

// Gather collects equal-sized chunks to root with direct sends (the
// MPICH 1.x linear gather): an mpi.Star over every rank.
func Gather(c *mpi.Comm, send, recv []byte, root int) error {
	n, me := len(send), c.Rank()
	if me == root {
		copy(recv[root*n:], send)
	}
	return mpi.GatherTree(c.BeginColl(), mpi.Star(root, nil), 0, true, func(r int) []byte {
		if r == me {
			return send
		}
		return recv[r*n : (r+1)*n]
	})
}

// Scatter distributes equal chunks from root with direct sends.
func Scatter(c *mpi.Comm, send, recv []byte, root int) error {
	cc := c.BeginColl()
	n := len(recv)
	if c.Rank() == root {
		for r := 0; r < c.Size(); r++ {
			if r == root {
				copy(recv, send[r*n:(r+1)*n])
				continue
			}
			if err := cc.Send(r, 0, send[r*n:(r+1)*n], transport.ClassData, true); err != nil {
				return err
			}
		}
		return nil
	}
	m, err := cc.Recv(root, 0)
	if err != nil {
		return err
	}
	if len(m.Payload) != n {
		return fmt.Errorf("baseline: scatter chunk is %d bytes, want %d", len(m.Payload), n)
	}
	copy(recv, m.Payload)
	return nil
}

// Allgather runs the ring algorithm: in step s every rank forwards the
// block it received in step s-1 to its right neighbour, so after N-1
// steps everyone holds every block.
func Allgather(c *mpi.Comm, send, recv []byte) error {
	size := c.Size()
	n := len(send)
	cc := c.BeginColl()
	rank := c.Rank()
	copy(recv[rank*n:], send)
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	blk := rank // block we forward next
	for step := 0; step < size-1; step++ {
		if err := cc.Send(right, step, recv[blk*n:(blk+1)*n], transport.ClassData, true); err != nil {
			return err
		}
		m, err := cc.Recv(left, step)
		if err != nil {
			return err
		}
		blk = (blk - 1 + size) % size
		if len(m.Payload) != n {
			return fmt.Errorf("baseline: allgather block is %d bytes, want %d", len(m.Payload), n)
		}
		copy(recv[blk*n:], m.Payload)
	}
	return nil
}

// Alltoall runs pairwise exchanges: in round i every rank sends to
// (rank+i) mod N and receives from (rank-i) mod N.
func Alltoall(c *mpi.Comm, send, recv []byte) error {
	size := c.Size()
	n := len(send) / size
	cc := c.BeginColl()
	rank := c.Rank()
	copy(recv[rank*n:(rank+1)*n], send[rank*n:(rank+1)*n])
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
			return fmt.Errorf("baseline: alltoall chunk from %d is %d bytes, want %d", src, len(m.Payload), n)
		}
		copy(recv[src*n:(src+1)*n], m.Payload)
	}
	return nil
}
