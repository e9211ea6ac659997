package mpi

import (
	"testing"

	"repro/internal/transport"
)

// TestScanUnexpectedDoesNotAllocate: a receive that finds nothing in a
// deep unexpected queue allocates nothing. A rank consuming N-1
// multicasts in rank order behind everything that arrived early scans
// the queue once per receive, so one allocation per queued message per
// scan was O(N²) allocations per collective.
func TestScanUnexpectedDoesNotAllocate(t *testing.T) {
	rt := &Runtime{}
	for i := 0; i < 64; i++ {
		rt.unexpected = append(rt.unexpected, transport.Message{Kind: transport.P2P, Src: i, Tag: int32(i)})
	}
	want := int32(-1)
	pred := func(m *transport.Message) bool { return m.Tag == want }
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := rt.scanUnexpected(pred); ok {
			t.Fatal("a non-matching scan matched")
		}
	})
	if allocs != 0 {
		t.Errorf("scan over %d non-matching messages: %v allocations, want 0", len(rt.unexpected), allocs)
	}
	if got := rt.UnexpectedDepth(); got != 64 {
		t.Errorf("the scan left %d queued messages, want 64", got)
	}
}
