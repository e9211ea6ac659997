package mpi_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// TestDeviceWithoutWire pins what the runtime does on the in-process
// device, which multicasts but has no wire (no MTU, no loss, no peers
// that die): it refuses failure detection by naming the device, reports
// no fragment payload, no multicast id and nothing pending, posts no
// receives, and a repair resends the whole message as one multicast.
func TestDeviceWithoutWire(t *testing.T) {
	const n = 3
	payload := bytes.Repeat([]byte("repair"), 700) // several frames on any wire
	err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
		rt := c.Runtime()
		if _, ok := rt.Endpoint().(transport.Wire); ok {
			return fmt.Errorf("%T has a wire", rt.Endpoint())
		}
		err := rt.SetFailureDetection(mpi.FailureOptions{})
		if err == nil || !strings.Contains(err.Error(), "*transport.MemEndpoint") {
			return fmt.Errorf("SetFailureDetection = %v, want an error naming *transport.MemEndpoint", err)
		}
		release := c.PostRecvs(4)
		release()
		release() // a no-op may be released any number of times

		if err := c.Barrier(); err != nil { // every listener is in
			return err
		}
		cc := c.BeginColl()
		if got := cc.FragPayload(); got != 0 {
			return fmt.Errorf("FragPayload = %d, want 0", got)
		}
		if c.Rank() == 0 {
			if err := cc.MulticastRepair(mpi.Whole, payload, transport.ClassData, 0, nil); err != nil {
				return err
			}
			if id := cc.LastMulticastID(); id != 0 {
				return fmt.Errorf("LastMulticastID = %d after a multicast, want 0", id)
			}
			return nil
		}
		if _, _, _, ok := cc.MissingFrom(0); ok {
			return fmt.Errorf("MissingFrom(0) reports a partial message")
		}
		m, err := cc.RecvMulticast(mpi.Whole)
		if err != nil {
			return err
		}
		if !bytes.Equal(m.Payload, payload) {
			return fmt.Errorf("repair delivered %d of %d bytes", len(m.Payload), len(payload))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
