package simnet_test

import (
	"fmt"
	"testing"

	"repro/internal/reliab"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestPingDoesNotStarveRecoveryProbe pins the probe/ack race at the
// suspicion boundary: the failure detector's sweep period (20 ms) is
// shorter than the stream RTO (25 ms), so a waiting rank pings its
// peers more often than the stream layer probes them. Each ping is
// answered with an ordinary stream ack — and if that ack counted as
// stream activity, every sweep would re-arm the recovery probe without
// firing it, postponing retransmission of a genuinely lost fragment
// forever. The scenario drops the one data fragment of a reliable
// message, then has the sender ping at sweep cadence while the receiver
// blocks on the message: delivery must still complete within a few RTOs
// because the recovery probe fires on schedule despite the ping acks.
func TestPingDoesNotStarveRecoveryProbe(t *testing.T) {
	const (
		sweepPeriod = 20 * sim.Millisecond // < the 25 ms reliab.RTO, as in mpi.FailureOptions
		pingTimeout = 5 * sim.Millisecond
		maxSweeps   = 64 // 1.28 s of pinging before the sender gives up
	)
	prof := simnet.DefaultProfile()
	dropped := 0
	prof.DropP2P = func(dst int, f transport.Fragment) bool {
		// Exactly the first data fragment of the stream vanishes; the
		// retransmission and all control traffic pass.
		if dst == 1 && !f.Ctl && f.Stream != 0 && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	nw := simnet.New(2, simnet.Switch, prof)

	var deliveredAt int64 = -1
	fns := []func(ep *simnet.Endpoint) error{
		func(ep *simnet.Endpoint) error {
			if err := ep.SendReliable(1, transport.Message{
				Class:   transport.ClassData,
				Payload: []byte("one lost fragment"),
			}); err != nil {
				return err
			}
			// The sweep loop a blocked collective runs: ping, then sleep
			// out the remainder of the suspicion period. Procs share the
			// engine's single thread, so reading deliveredAt is safe.
			for s := 0; s < maxSweeps; s++ {
				if deliveredAt >= 0 {
					return nil
				}
				if !ep.Ping(1, int64(pingTimeout)) {
					return fmt.Errorf("sweep %d: live peer failed a ping", s)
				}
				ep.Proc().Sleep(sweepPeriod - pingTimeout)
			}
			return fmt.Errorf("message still undelivered after %d sweeps: recovery probe starved", maxSweeps)
		},
		func(ep *simnet.Endpoint) error {
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if string(m.Payload) != "one lost fragment" {
				return fmt.Errorf("payload corrupted: %q", m.Payload)
			}
			deliveredAt = ep.Now()
			return nil
		},
	}
	if err := nw.Run(fns); err != nil {
		t.Fatal(err)
	}
	if nw.Stats.InjectedP2PLosses != 1 {
		t.Fatalf("injected %d losses, want 1 — the scenario did not exercise recovery", nw.Stats.InjectedP2PLosses)
	}
	if nw.Stats.Stream.Retransmits.Load() == 0 {
		t.Fatal("no retransmission recorded; delivery cannot have recovered the loss")
	}
	// One RTO of silence arms the probe, the ack round trip and resend
	// are microseconds: anything beyond four RTOs means probes were
	// being postponed by the ping traffic.
	if deliveredAt > 4*reliab.RTO {
		t.Errorf("recovery took %d ns (> 4 RTOs of %d ns): probes postponed by ping acks", deliveredAt, reliab.RTO)
	}
	t.Logf("lost fragment recovered at %d ns (%d retransmits, %d probes)",
		deliveredAt, nw.Stats.Stream.Retransmits.Load(), nw.Stats.Stream.ProbesSent.Load())
}
