package core

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// The acknowledgment broadcast's retransmission timer, as fig A1 runs it.
// It is aggressive on purpose: it reproduces the PVM behaviour of
// re-sending the data until every acknowledgment has arrived, which is
// what the paper blames for the protocol's cost. The retry budget waits
// out 400 periods, 40 ms, so a receiver a few milliseconds late still
// gets the data.
const (
	// ackTimeout is how long the root waits for acknowledgments before
	// re-multicasting, in nanoseconds on the device clock.
	ackTimeout = 100_000
	// ackRetries bounds the number of re-multicasts before giving up.
	ackRetries = 400
)

// BcastAck is the sender-initiated reliable multicast of the PVM work the
// paper discusses (Dunigan & Hall, ORNL/TM-13030): the root multicasts
// immediately — no scouts — and then re-multicasts the same message until
// every receiver has acknowledged it. The paper notes this "did not
// produce improvement in performance" because the repeated data sends
// add delay; the A1 ablation experiment reproduces that result.
func BcastAck(c *mpi.Comm, buf []byte, root int) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	cc := c.BeginColl()

	if c.Rank() != root {
		m, err := cc.RecvMulticast(mpi.Whole)
		if err != nil {
			return err
		}
		if len(m.Payload) != len(buf) {
			return fmt.Errorf("core: ack bcast buffer %d bytes, message %d", len(buf), len(m.Payload))
		}
		copy(buf, m.Payload)
		// Acknowledge after successful receipt. Duplicate data
		// multicasts for this operation are discarded by the runtime's
		// sequence-number watermark.
		return cc.Send(root, phaseAck, nil, transport.ClassAck, false)
	}

	acked := make([]bool, size)
	acked[root] = true
	remaining := size - 1
	for attempt := 0; ; attempt++ {
		if attempt > ackRetries {
			return fmt.Errorf("core: ack bcast gave up after %d retransmissions (%d of %d unacked)",
				ackRetries, remaining, size-1)
		}
		if err := cc.Multicast(mpi.Whole, buf, transport.ClassData); err != nil {
			return err
		}
		deadline := c.Now() + ackTimeout
		for remaining > 0 {
			wait := deadline - c.Now()
			if wait <= 0 {
				break
			}
			m, ok, err := cc.RecvTimeout(mpi.AnySource, phaseAck, wait)
			if err != nil {
				return err
			}
			if !ok {
				break // timer expired: retransmit
			}
			r := cc.SrcRank(m)
			if !acked[r] {
				acked[r] = true
				remaining--
			}
		}
		if remaining == 0 {
			return nil
		}
	}
}

// AckAlgorithms returns a collective set whose broadcast is the
// acknowledgment protocol (for the A1 ablation benchmark), with the
// multicast Barrier and package baseline's other collectives.
func AckAlgorithms() mpi.Algorithms {
	algs := baseline.Algorithms()
	algs.Bcast, algs.Barrier = BcastAck, Barrier
	return algs
}
