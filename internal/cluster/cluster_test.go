package cluster_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

func TestRunSimWiresWorld(t *testing.T) {
	seen := make([]bool, 5)
	nw, err := cluster.RunSim(5, simnet.Switch, simnet.DefaultProfile(),
		baseline.Algorithms(), func(c *mpi.Comm) error {
			if c.Size() != 5 {
				return fmt.Errorf("size = %d", c.Size())
			}
			seen[c.Rank()] = true
			return c.Barrier()
		})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d never ran", r)
		}
	}
	if nw.Size() != 5 {
		t.Fatalf("network size = %d", nw.Size())
	}
}

func TestRunSimPropagatesRankError(t *testing.T) {
	boom := errors.New("boom")
	_, err := cluster.RunSim(3, simnet.Hub, simnet.DefaultProfile(),
		baseline.Algorithms(), func(c *mpi.Comm) error {
			if c.Rank() == 2 {
				return boom
			}
			// Other ranks must not hang on the failing rank: they do no
			// communication in this test.
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("RunSim error = %v, want boom", err)
	}
}

func TestSimCommExposesEndpoint(t *testing.T) {
	_, err := cluster.RunSim(2, simnet.Switch, simnet.DefaultProfile(),
		core.Algorithms(core.Binary),
		func(c *mpi.Comm) error {
			ep := cluster.SimComm(c)
			if ep.Rank() != c.Rank() {
				return fmt.Errorf("endpoint rank %d != comm rank %d", ep.Rank(), c.Rank())
			}
			before := c.Now()
			ep.Proc().Sleep(1000)
			if c.Now()-before != 1000 {
				return errors.New("Sleep did not advance virtual time")
			}
			return c.Barrier()
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSimMismatchedWorldRejected(t *testing.T) {
	nw := simnet.New(2, simnet.Switch, simnet.DefaultProfile())
	err := nw.Run(nil)
	if err == nil {
		t.Fatal("mismatched rank program count accepted")
	}
}

func TestRunSimVirtualTimeIsSharedAcrossRanks(t *testing.T) {
	// Two ranks see a consistent global clock: a message can never
	// arrive before it was sent.
	var sent, recvd int64
	_, err := cluster.RunSim(2, simnet.Hub, simnet.DefaultProfile(),
		baseline.Algorithms(), func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				sent = c.Now()
				return c.Send(1, 1, []byte("t"))
			}
			if _, err := c.Recv(0, 1, make([]byte, 1)); err != nil {
				return err
			}
			recvd = c.Now()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if recvd <= sent {
		t.Fatalf("message received at %d, sent at %d", recvd, sent)
	}
}
