package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// AckOptions configures the PVM-style acknowledgment broadcast.
type AckOptions struct {
	// Timeout is how long the root waits for acknowledgments before
	// re-multicasting, in nanoseconds on the device clock.
	Timeout int64
	// MaxRetries bounds the number of re-multicasts before giving up.
	MaxRetries int
}

// BcastAck is the sender-initiated reliable multicast of the PVM work the
// paper discusses (Dunigan & Hall, ORNL/TM-13030): the root multicasts
// immediately — no scouts — and then re-multicasts the same message until
// every receiver has acknowledged it. The paper notes this "did not
// produce improvement in performance" because the repeated data sends
// add delay; the A1 ablation experiment reproduces that result.
func BcastAck(c *mpi.Comm, buf []byte, root int, opts AckOptions) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	cc := c.BeginColl()
	if !cc.CanMulticast() {
		return mpi.ErrNoMulticast
	}

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
		if attempt > opts.MaxRetries {
			return fmt.Errorf("core: ack bcast gave up after %d retransmissions (%d of %d unacked)",
				opts.MaxRetries, remaining, size-1)
		}
		if err := cc.Multicast(mpi.Whole, buf, transport.ClassData); err != nil {
			return err
		}
		deadline := c.Now() + opts.Timeout
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
// acknowledgment protocol (for the A1 ablation benchmark).
func AckAlgorithms(opts AckOptions) mpi.Algorithms {
	return mpi.Algorithms{
		Bcast: func(c *mpi.Comm, buf []byte, root int) error {
			return BcastAck(c, buf, root, opts)
		},
		Barrier: Barrier,
	}
}
