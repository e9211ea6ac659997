// jacobi solves the 1-D heat equation with a Jacobi iteration distributed
// over a simulated 8-node cluster: halo exchange via point-to-point
// SendRecv, convergence detection via Allreduce(max), and periodic
// redistribution of the global state via broadcast. The broadcast is
// where the paper's multicast implementation pays off — the example runs
// the same solver under both collective stacks and prints the virtual
// communication time of each.
//
//	go run ./examples/jacobi
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

const (
	procs     = 8
	cells     = 512 // per rank
	maxIters  = 200
	tolerance = 1e-4
)

func run(label string, algs mpi.Algorithms) {
	var finish int64
	var iters int
	var residual float64
	_, err := cluster.RunSim(procs, simnet.Switch, simnet.DefaultProfile(), algs,
		func(c *mpi.Comm) error {
			rank, size := c.Rank(), c.Size()
			// Local stripe with two ghost cells. Fixed boundary values
			// at the global edges drive the diffusion.
			u := make([]float64, cells+2)
			next := make([]float64, cells+2)
			if rank == 0 {
				u[0] = 100.0 // hot left wall
			}
			if rank == size-1 {
				u[cells+1] = -50.0 // cold right wall
			}

			for it := 0; it < maxIters; it++ {
				// Halo exchange with neighbours (deadlock-free:
				// transport sends are buffered).
				left, right := rank-1, rank+1
				buf := make([]byte, 8)
				if right < size {
					if _, err := c.SendRecv(right, 1, mpi.Float64sToBytes(u[cells:cells+1]),
						right, 2, buf); err != nil {
						return err
					}
					u[cells+1] = mpi.BytesToFloat64s(buf)[0]
				}
				if left >= 0 {
					if _, err := c.SendRecv(left, 2, mpi.Float64sToBytes(u[1:2]),
						left, 1, buf); err != nil {
						return err
					}
					u[0] = mpi.BytesToFloat64s(buf)[0]
				}

				// Jacobi sweep.
				diff := 0.0
				for i := 1; i <= cells; i++ {
					next[i] = 0.5 * (u[i-1] + u[i+1])
					if d := math.Abs(next[i] - u[i]); d > diff {
						diff = d
					}
				}
				copy(u[1:cells+1], next[1:cells+1])
				if rank == 0 {
					u[0] = 100.0
				}
				if rank == size-1 {
					u[cells+1] = -50.0
				}

				// Global convergence check: max residual across ranks.
				in := mpi.Float64sToBytes([]float64{diff})
				out := make([]byte, len(in))
				if err := c.Allreduce(in, out, mpi.Float64, mpi.OpMax); err != nil {
					return err
				}
				global := mpi.BytesToFloat64s(out)[0]

				// Every 50 iterations rank 0 broadcasts a checkpoint of
				// its stripe (a multi-frame message: multicast country).
				if it%50 == 49 {
					ckpt := make([]byte, 8*cells)
					if rank == 0 {
						copy(ckpt, mpi.Float64sToBytes(u[1:cells+1]))
					}
					if err := c.Bcast(ckpt, 0); err != nil {
						return err
					}
				}

				if rank == 0 {
					iters, residual = it+1, global
				}
				if global < tolerance {
					break
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if rank == 0 {
				finish = c.Now()
			}
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %3d iterations, residual %.2e, %10.1f µs simulated wall time\n",
		label, iters, residual, float64(finish)/1000)
}

func main() {
	fmt.Printf("1-D Jacobi heat solver, %d ranks × %d cells, switch topology:\n", procs, cells)
	run("mpich", baseline.Algorithms())
	run("mcast-binary", core.Algorithms(core.Binary)) // complete: MPICH where core has no multicast version
}
