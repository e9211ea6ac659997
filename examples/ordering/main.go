// ordering demonstrates the paper's §4 argument: with safe MPI code, the
// order of broadcasts over shared multicast groups is preserved — even
// with several successive roots, and even when a process receives from
// two multicast groups.
//
// It replays the paper's own example: processes 6, 7 and 8 broadcast to
// the same process group back to back. Because process 7 cannot proceed
// to send the second broadcast until it has received the first, and
// process 8 cannot send the third until it has received the second, the
// three broadcasts arrive everywhere in program order. Then the world is
// split into two overlapping-traffic groups to show ordering holds across
// groups, and finally the Orca-style sequencer broadcast is shown giving
// the same total order through a different mechanism.
//
//	go run ./examples/ordering
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/mpi"
)

func main() {
	algs := core.Algorithms(core.Binary) // complete: MPICH where core has no multicast version
	fmt.Println("§4 example: broadcasts from roots 6, 7, 8 — delivery order per rank:")
	err := mpi.RunMem(9, algs, func(c *mpi.Comm) error {
		var got []string
		for k, root := range []int{6, 7, 8} {
			buf := make([]byte, 8)
			if c.Rank() == root {
				copy(buf, fmt.Sprintf("msg-%d", k+1))
			}
			if err := c.Bcast(buf, root); err != nil {
				return err
			}
			got = append(got, strings.TrimRight(string(buf), "\x00"))
		}
		if c.Rank() < 3 { // a few ranks report; all assert
			fmt.Printf("  rank %d delivered: %s\n", c.Rank(), strings.Join(got, " → "))
		}
		if strings.Join(got, ",") != "msg-1,msg-2,msg-3" {
			return fmt.Errorf("rank %d saw out-of-order delivery: %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("two multicast groups (even/odd split), interleaved with world broadcasts:")
	err = mpi.RunMem(6, algs, func(c *mpi.Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		for k := 0; k < 3; k++ {
			wbuf, sbuf := make([]byte, 1), make([]byte, 1)
			if c.Rank() == 0 {
				wbuf[0] = byte(10 + k)
			}
			if err := c.Bcast(wbuf, 0); err != nil {
				return err
			}
			if sub.Rank() == 0 {
				sbuf[0] = byte(20 + k)
			}
			if err := sub.Bcast(sbuf, 0); err != nil {
				return err
			}
			if wbuf[0] != byte(10+k) || sbuf[0] != byte(20+k) {
				return fmt.Errorf("rank %d round %d out of order", c.Rank(), k)
			}
		}
		if c.Rank() == 0 {
			fmt.Println("  6 ranks × 3 rounds on two groups: every delivery in program order ✓")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("sequencer (Orca-style) broadcast — same order through rank 0:")
	// The sequencer set is complete too: its Bcast and the multicast
	// Barrier over the MPICH algorithms.
	err = mpi.RunMem(5, core.SequencerAlgorithms(), func(c *mpi.Comm) error {
		var got []byte
		for _, root := range []int{3, 1, 4} {
			buf := make([]byte, 1)
			if c.Rank() == root {
				buf[0] = byte(root)
			}
			if err := c.Bcast(buf, root); err != nil {
				return err
			}
			got = append(got, buf[0])
		}
		if got[0] != 3 || got[1] != 1 || got[2] != 4 {
			return fmt.Errorf("rank %d sequencer order broken: %v", c.Rank(), got)
		}
		if c.Rank() == 0 {
			fmt.Printf("  all ranks delivered 3 → 1 → 4 ✓\n")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
