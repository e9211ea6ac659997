package simnet

// Pending reports the partially reassembled messages ep's stream driver
// holds.
func (ep *Endpoint) Pending() int { return ep.streams.Pending() }
