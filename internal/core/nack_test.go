package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestNackCheaperThanAckOnHappyPath: receiver-initiated reliability
// (the resilient set's NACK repair) sends no duplicate data when nothing
// is lost (reference [10]'s core observation), whereas the
// sender-initiated protocol re-multicasts whenever acks are slower than
// its timer.
func TestNackCheaperThanAckOnHappyPath(t *testing.T) {
	dataFrames := func(algs mpi.Algorithms) int64 {
		nw, err := cluster.RunSim(5, simnet.Switch, simnet.DefaultProfile(), algs,
			func(c *mpi.Comm) error {
				buf := make([]byte, 5000)
				return c.Bcast(buf, 0)
			})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Wire.Frames(transport.ClassData)
	}
	ack := dataFrames(core.AckAlgorithms())
	nack := dataFrames(core.ResilientAlgorithms())
	if nack != 4 { // exactly ceil(5000/1428) frames, no duplicates
		t.Fatalf("nack protocol sent %d data frames, want 4", nack)
	}
	if ack <= nack {
		t.Fatalf("expected the aggressive ack protocol to duplicate data (ack=%d, nack=%d)", ack, nack)
	}
}

// Back-to-back repaired broadcasts must not leak protocol stragglers
// (confirmations, repair requests) into the runtime's unexpected queue
// (BeginColl garbage-collects them).
func TestNackStragglersCollected(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.LossRate = 0.3
	prof.Seed = 5
	nw, err := cluster.RunSim(4, simnet.Switch, prof, core.ResilientAlgorithms(),
		func(c *mpi.Comm) error {
			buf := make([]byte, 3000)
			for k := 0; k < 5; k++ {
				if c.Rank() == 0 {
					for i := range buf {
						buf[i] = byte(k)
					}
				}
				if err := c.Bcast(buf, 0); err != nil {
					return err
				}
				if buf[0] != byte(k) {
					return fmt.Errorf("round %d corrupted on rank %d", k, c.Rank())
				}
			}
			if depth := c.Runtime().UnexpectedDepth(); depth > 4 {
				return fmt.Errorf("unexpected queue grew to %d entries", depth)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Wire.Frames(transport.ClassNack) == 0 {
		t.Fatal("no repair was requested: the test no longer leaves stragglers to collect")
	}
}
