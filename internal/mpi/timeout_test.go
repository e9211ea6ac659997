package mpi_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// collImpl exposes CollCtx-level behaviour through a custom "algorithm"
// so tests can exercise the protocol plumbing directly.
func withColl(t *testing.T, n int, fn func(c *mpi.Comm, cc mpi.CollCtx) error) {
	t.Helper()
	algs := mpi.Algorithms{
		Bcast: func(c *mpi.Comm, buf []byte, root int) error {
			return fn(c, c.BeginColl())
		},
	}
	err := mpi.RunMem(n, algs, func(c *mpi.Comm) error {
		return c.Bcast(nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollRecvTimeoutExpires(t *testing.T) {
	withColl(t, 2, func(c *mpi.Comm, cc mpi.CollCtx) error {
		if c.Rank() != 0 {
			return nil // never sends
		}
		start := time.Now()
		_, ok, err := cc.RecvTimeout(1, 0, int64(30*time.Millisecond))
		if err != nil {
			return err
		}
		if ok {
			return errors.New("received a message nobody sent")
		}
		if time.Since(start) < 20*time.Millisecond {
			return errors.New("timeout returned too early")
		}
		return nil
	})
}

func TestCollRecvTimeoutDelivers(t *testing.T) {
	withColl(t, 2, func(c *mpi.Comm, cc mpi.CollCtx) error {
		if c.Rank() == 1 {
			return cc.Send(0, 3, []byte("timely"), transport.ClassControl, false)
		}
		m, ok, err := cc.RecvTimeout(1, 3, int64(2*time.Second))
		if err != nil {
			return err
		}
		if !ok || string(m.Payload) != "timely" {
			return fmt.Errorf("RecvTimeout = %v %q", ok, m.Payload)
		}
		return nil
	})
}

func TestCollRecvTimeoutScansUnexpectedFirst(t *testing.T) {
	withColl(t, 2, func(c *mpi.Comm, cc mpi.CollCtx) error {
		if c.Rank() == 1 {
			if err := cc.Send(0, 1, []byte("early"), transport.ClassControl, false); err != nil {
				return err
			}
			return cc.Send(0, 2, []byte("wake"), transport.ClassControl, false)
		}
		// Pull the phase-2 message first: phase-1 lands in the
		// unexpected queue.
		if _, err := cc.Recv(1, 2); err != nil {
			return err
		}
		// RecvTimeout must find the queued phase-1 message instantly.
		m, ok, err := cc.RecvTimeout(1, 1, 1) // 1 ns: only the queue can satisfy this
		if err != nil {
			return err
		}
		if !ok || string(m.Payload) != "early" {
			return fmt.Errorf("unexpected-queue scan failed: %v %q", ok, m.Payload)
		}
		return nil
	})
}

func TestStaleMulticastDuplicatesDropped(t *testing.T) {
	// A retransmitted multicast with an already-consumed sequence number
	// must be invisible to later receives (the watermark dedup).
	algs := mpi.Algorithms{Bcast: func(c *mpi.Comm, buf []byte, root int) error {
		cc := c.BeginColl()
		if c.Rank() == root {
			// Multicast the payload twice (a "retransmission").
			if err := cc.Multicast(mpi.Whole, []byte("dup"), transport.ClassData); err != nil {
				return err
			}
			if err := cc.Multicast(mpi.Whole, []byte("dup"), transport.ClassData); err != nil {
				return err
			}
			return nil
		}
		if _, err := cc.RecvMulticast(mpi.Whole); err != nil {
			return err
		}
		return nil
	}, Barrier: baseline.Barrier}
	err := mpi.RunMem(2, algs, func(c *mpi.Comm) error {
		// Synchronize entry first (MPICH's point-to-point barrier): the
		// test's Bcast multicasts with no scout gather, and a multicast
		// sent before the peer's World join is legitimately lost under
		// receiver-directed semantics — not what this test is about.
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := c.Bcast(nil, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("after"))
		}
		// The duplicate multicast must not surface; the next thing rank 1
		// sees is the user message.
		buf := make([]byte, 8)
		st, err := c.Recv(0, 5, buf)
		if err != nil {
			return err
		}
		if string(buf[:st.Len]) != "after" {
			return fmt.Errorf("got %q, duplicate multicast leaked", buf[:st.Len])
		}
		if depth := c.Runtime().UnexpectedDepth(); depth != 0 {
			return fmt.Errorf("unexpected queue holds %d stale entries", depth)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAckBcastOverMemNet(t *testing.T) {
	// The ACK protocol's timed receives must work over the wall-clock
	// transport too (every transport.Endpoint has RecvTimeout).
	algs := core.AckAlgorithms()
	err := mpi.RunMem(3, algs, func(c *mpi.Comm) error {
		buf := make([]byte, 64)
		if c.Rank() == 1 {
			for i := range buf {
				buf[i] = 7
			}
		}
		if err := c.Bcast(buf, 1); err != nil {
			return err
		}
		if buf[0] != 7 || buf[63] != 7 {
			return fmt.Errorf("rank %d corrupted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
