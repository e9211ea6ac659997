// Quickstart: a complete MPI program using the multicast collectives.
//
// Four ranks run in-process (goroutines over the channel transport —
// swap in udpnet or simnet without touching the program): the root
// broadcasts a configuration blob with the paper's binary scout
// algorithm, everyone contributes to an allreduce, and a barrier closes
// the round.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mpi"
)

func main() {
	// Collectives: the paper's multicast suite. The set is complete —
	// the MPICH-style algorithms run whatever it has no multicast
	// version of.
	algs := core.Algorithms(core.Binary)

	err := mpi.RunMem(4, algs, func(c *mpi.Comm) error {
		// 1. Root broadcasts a config payload; one multicast reaches
		//    every rank after the scout synchronization guarantees no
		//    receiver can lose it.
		config := make([]byte, 32)
		if c.Rank() == 0 {
			copy(config, "tile=8;iters=100;tol=1e-6")
		}
		if err := c.Bcast(config, 0); err != nil {
			return fmt.Errorf("bcast: %w", err)
		}

		// 2. Every rank computes something and the world sums it.
		local := mpi.Int64sToBytes([]int64{int64((c.Rank() + 1) * 10)})
		global := make([]byte, len(local))
		if err := c.Allreduce(local, global, mpi.Int64, mpi.OpSum); err != nil {
			return fmt.Errorf("allreduce: %w", err)
		}

		// 3. Synchronize before reporting.
		if err := c.Barrier(); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}

		fmt.Printf("rank %d: config=%q sum=%d\n",
			c.Rank(), string(config[:26]), mpi.BytesToInt64s(global)[0])
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
