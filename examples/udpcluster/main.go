// udpcluster demonstrates the collectives over REAL IP multicast: six
// ranks with real UDP sockets, one kernel multicast datagram per
// broadcast, scout synchronization making the unreliable medium safe.
// It also demonstrates the paper's slow-receiver scenario live: one rank
// is deliberately late into the broadcast and still receives everything,
// because the root cannot multicast until the slow rank's scout arrives.
//
//	go run ./examples/udpcluster
//
// If the host has no usable multicast (some containers), the example
// reports it and exits 0.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/udpnet"
)

func main() {
	if err := udpnet.Probe(); err != nil {
		fmt.Printf("IP multicast not available here (%v) — nothing to demo.\n", err)
		os.Exit(0)
	}

	const n = 6
	cfg := udpnet.DefaultConfig(n)
	algs := core.Algorithms(core.Binary) // complete: MPICH where core has no multicast version

	payload := bytes.Repeat([]byte("multicast!"), 400) // 4 kB, 3 datagrams

	err := udpnet.Run(cfg, algs, func(c *mpi.Comm) error {
		if c.Rank() == 3 {
			// The slow receiver: busy "computing" while everyone else
			// is already inside the broadcast.
			start := c.Now()
			for c.Now()-start < 30_000_000 { // 30 ms
			}
			fmt.Println("rank 3: finally entering the broadcast (30 ms late)")
		}
		buf := make([]byte, len(payload))
		if c.Rank() == 0 {
			copy(buf, payload)
		}
		start := c.Now()
		if err := c.Bcast(buf, 0); err != nil {
			return err
		}
		elapsed := float64(c.Now()-start) / 1e3
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("rank %d received corrupted payload", c.Rank())
		}
		fmt.Printf("rank %d: got %d bytes via kernel multicast in %.0f µs\n",
			c.Rank(), len(buf), elapsed)

		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Println("barrier passed: all ranks synchronized by one multicast release")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
