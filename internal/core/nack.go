package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// NackOptions configures receiver-initiated repair: BcastNack, and the
// data phases of the resilient sets (awaitMulticast).
type NackOptions struct {
	// Probe is the receiver's one unit of time, in device-clock
	// nanoseconds. BcastNack waits this long for the message before each
	// request. A resilient set's receiver looks this often at what its
	// device has seen arrive; asks for the rest of a message once it has
	// been quiet for four of its own inter-arrival gaps, at least Probe/8;
	// asks again no sooner than Probe later, doubling; and asks for a
	// message of which nothing arrived only after 7 Probe (more for more
	// than 16 fragments), then at intervals doubling from 8 Probe. When a
	// request leaves is decided by arrivals, not by this value: halving it
	// makes receivers look, and give up on silence, twice as often —
	// measured at a quarter it makes them ask for messages that were
	// merely late.
	Probe int64
	// MaxRepairs bounds the repair requests per receiver.
	MaxRepairs int
}

// DefaultNackOptions uses a 2 ms probe period.
func DefaultNackOptions() NackOptions {
	return NackOptions{Probe: 2_000_000, MaxRepairs: 64}
}

// BcastNack is the receiver-initiated reliable multicast of the paper's
// reference [10] (Towsley, Kurose & Pingali: sender-initiated vs
// receiver-initiated reliable multicast). The root multicasts the data
// once, immediately, with no scouts; receivers that do not observe the
// message within the probe timeout send a NACK and the root re-multicasts
// to repair. The root learns completion from one final confirmation per
// receiver so it never leaves a receiver behind.
//
// Compared to BcastAck (sender-initiated) the happy path carries N-1
// small confirmations but no duplicate data; under loss, repairs are
// driven by exactly the receivers that need them — the property [10]
// shows makes receiver-initiated protocols scale better. Compared to the
// paper's scout algorithms it still risks the initial multicast entirely:
// a slow receiver costs a probe timeout rather than a scout, which is why
// the scouts win for MPI's synchronous collective semantics.
func BcastNack(c *mpi.Comm, buf []byte, root int, opts NackOptions) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	if opts.Probe <= 0 {
		opts = DefaultNackOptions()
	}
	cc := c.BeginColl()
	if !cc.CanMulticast() {
		return mpi.ErrNoMulticast
	}

	if c.Rank() != root {
		for attempt := 0; ; attempt++ {
			m, ok, err := cc.RecvMulticastTimeout(mpi.Whole, opts.Probe)
			if err != nil {
				return err
			}
			if ok {
				if len(m.Payload) != len(buf) {
					return fmt.Errorf("core: nack bcast buffer %d bytes, message %d", len(buf), len(m.Payload))
				}
				copy(buf, m.Payload)
				// Confirm receipt so the root can stop repairing.
				return cc.Send(root, phaseAck, nil, transport.ClassAck, false)
			}
			if err := cc.CheckFailures(); err != nil {
				return err
			}
			if attempt >= opts.MaxRepairs {
				return fmt.Errorf("core: nack bcast gave up after %d repair requests", attempt)
			}
			cc.TraceEvent("send.nack", opts.Probe)
			if err := cc.Send(root, phaseNack, nil, transport.ClassNack, false); err != nil {
				return err
			}
		}
	}

	// Root: multicast once, then serve NACK repairs until every receiver
	// has confirmed.
	if err := cc.Multicast(mpi.Whole, buf, transport.ClassData); err != nil {
		return err
	}
	confirmed := make([]bool, size)
	confirmed[root] = true
	remaining := size - 1
	for remaining > 0 {
		m, err := cc.RecvControl()
		if err != nil {
			return err
		}
		switch m.Class {
		case transport.ClassNack:
			if err := cc.Multicast(mpi.Whole, buf, transport.ClassData); err != nil {
				return err
			}
		case transport.ClassAck:
			if r := cc.SrcRank(m); !confirmed[r] {
				confirmed[r] = true
				remaining--
			}
		}
	}
	return nil
}

// NackAlgorithms returns a collective set whose broadcast is the
// receiver-initiated protocol.
func NackAlgorithms(opts NackOptions) mpi.Algorithms {
	return mpi.Algorithms{
		Bcast: func(c *mpi.Comm, buf []byte, root int) error {
			return BcastNack(c, buf, root, opts)
		},
		Barrier: Barrier,
	}
}
