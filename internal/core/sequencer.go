package core

import (
	"fmt"

	"repro/internal/baseline"
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
// sequencer then runs a binary scout-synchronized multicast to everyone —
// the broadcast round from rank 0. Unlike the paper's own algorithms the
// originating root also receives the multicast, so every rank — root
// included — observes broadcasts in the one order the sequencer
// transmitted them, regardless of which rank originated each message.
//
// The extra forwarding hop makes it strictly slower than the binary
// scout broadcast for MPI semantics (where program order already
// provides ordering in safe programs); it is implemented as the
// ordering-centric alternative the related-work comparison calls for.
func BcastSequencer(c *mpi.Comm, buf []byte, root int) error {
	const sequencer = 0
	if root != sequencer {
		cc := c.BeginColl()
		switch c.Rank() {
		case root:
			if err := cc.Send(sequencer, phaseForward, buf, transport.ClassData, false); err != nil {
				return err
			}
		case sequencer:
			m, err := cc.Recv(root, phaseForward)
			if err != nil {
				return err
			}
			if len(m.Payload) != len(buf) {
				return fmt.Errorf("core: sequencer buffer %d bytes, message %d", len(buf), len(m.Payload))
			}
			copy(buf, m.Payload)
		}
	}
	return runRound(c, bcastRound(buf, sequencer), roundOptions{gather: gatherScoutsBinary})
}

// SequencerAlgorithms returns a collective set using the sequencer
// broadcast, for ordering experiments, with the multicast Barrier and
// package baseline's other collectives.
func SequencerAlgorithms() mpi.Algorithms {
	algs := baseline.Algorithms()
	algs.Bcast, algs.Barrier = BcastSequencer, Barrier
	return algs
}
