package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// BcastSequencer is the Orca-style sequencer broadcast (Tanenbaum,
// Kaashoek & Bal) the paper cites as related work: every broadcast is
// funneled through a designated sequencer process (rank 0) which imposes
// a single global order on all broadcasts in the communicator before
// multicasting them.
//
// The root forwards its payload point-to-point to the sequencer; the
// sequencer then runs a binary scout-synchronized multicast to everyone.
// Unlike the paper's own algorithms the originating root also receives
// the multicast, so every rank — root included — observes broadcasts in
// the one order the sequencer transmitted them, regardless of which rank
// originated each message.
//
// The extra forwarding hop makes it strictly slower than the binary
// scout broadcast for MPI semantics (where program order already
// provides ordering in safe programs); it is implemented as the
// ordering-centric alternative the related-work comparison calls for.
func BcastSequencer(c *mpi.Comm, buf []byte, root int) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	cc := c.BeginColl()
	if !cc.CanMulticast() {
		return mpi.ErrNoMulticast
	}
	const sequencer = 0

	// Step 1: the originator hands the message to the sequencer.
	payload := buf
	if root != sequencer {
		if c.Rank() == root {
			if err := cc.Send(sequencer, phaseForward, buf, transport.ClassData, false); err != nil {
				return err
			}
		}
		if c.Rank() == sequencer {
			m, err := cc.Recv(root, phaseForward)
			if err != nil {
				return err
			}
			payload = m.Payload
		}
	}

	// Step 2: scout-synchronized multicast from the sequencer. Every
	// rank except the sequencer — including the original root — posts a
	// receive, so delivery order is the sequencer's transmission order.
	if err := gatherScoutsBinary(cc, sequencer, -1); err != nil {
		return err
	}
	if c.Rank() == sequencer {
		if err := cc.Multicast(mpi.Whole, payload, transport.ClassData); err != nil {
			return err
		}
		if root != sequencer {
			if len(payload) != len(buf) {
				return fmt.Errorf("core: sequencer buffer %d bytes, message %d", len(buf), len(payload))
			}
			copy(buf, payload)
		}
		return nil
	}
	m, err := cc.RecvMulticast(mpi.Whole)
	if err != nil {
		return err
	}
	if len(m.Payload) != len(buf) {
		return fmt.Errorf("core: sequencer bcast buffer %d bytes, message %d", len(buf), len(m.Payload))
	}
	copy(buf, m.Payload)
	return nil
}

// SequencerAlgorithms returns a collective set using the sequencer
// broadcast, for ordering experiments.
func SequencerAlgorithms() mpi.Algorithms {
	return mpi.Algorithms{Bcast: BcastSequencer, Barrier: Barrier}
}
