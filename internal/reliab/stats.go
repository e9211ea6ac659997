package reliab

import "sync/atomic"

// StatCounters is the hot-path form of Stats: one atomic per counter,
// so transport event loops increment without locks and concurrent
// readers (the mpirun stats print, the HTTP metrics sampler) read a
// torn-free snapshot. Plain int64 reads of concurrently incremented
// counters are racy — this is the Snapshot() accessor that fixes it.
type StatCounters struct {
	MsgsStreamed   atomic.Int64
	Retransmits    atomic.Int64
	ProbesSent     atomic.Int64
	ConfirmsSent   atomic.Int64
	AcksSent       atomic.Int64
	AcksReceived   atomic.Int64
	DupFragments   atomic.Int64
	WindowStalls   atomic.Int64
	PauseStalls    atomic.Int64
	StreamFailures atomic.Int64
}

// Snapshot returns a plain-value copy of every counter, safe to take
// while the owning transport is live.
func (c *StatCounters) Snapshot() Stats {
	return Stats{
		MsgsStreamed:   c.MsgsStreamed.Load(),
		Retransmits:    c.Retransmits.Load(),
		ProbesSent:     c.ProbesSent.Load(),
		ConfirmsSent:   c.ConfirmsSent.Load(),
		AcksSent:       c.AcksSent.Load(),
		AcksReceived:   c.AcksReceived.Load(),
		DupFragments:   c.DupFragments.Load(),
		WindowStalls:   c.WindowStalls.Load(),
		PauseStalls:    c.PauseStalls.Load(),
		StreamFailures: c.StreamFailures.Load(),
	}
}
