package simnet

import "repro/internal/reliab"

// Pending reports the partially reassembled messages ep's stream driver
// holds.
func (ep *Endpoint) Pending() int { return ep.streams.Pending() }

// LiftPausedWindow turns off the paused-NIC admission window: a paused
// sender admits up to the full stream window, as if no transport hook
// existed. Pacing tests call it, before Run, for their negative control.
func (nw *Network) LiftPausedWindow() { nw.paused = reliab.Window }
