package core_test

// Scale coverage for the two-level suite and the topology plumbing: the
// N=256 fabric the sweeps now run at (64 even segments, and the uneven
// 43-segment placement a fanout of 6 produces), the single-segment
// degenerate at the same scale (must delegate to the flat suite frame
// for frame), and an opt-in N=1024 long test (set BENCH_LONG) so the
// scale ceiling is exercised by a test, not only by benches.

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// scaleChunk keeps the N=256 conformance passes inside the tier-1 test
// budget: the full seven-collective oracle at 64 bytes per rank still
// moves 256·255 alltoall slices and 64 segment aggregates.
const scaleChunk = 64

func TestTwoLevelConformanceN256(t *testing.T) {
	for _, set := range []struct {
		name string
		algs mpi.Algorithms
	}{
		{"mcast-2level", core.TwoLevelAlgorithms()},
		{"flat-binary", core.Algorithms(core.Binary)},
		{"mcast-chunked", chunkedAlgorithms()},
	} {
		set := set
		t.Run(set.name, func(t *testing.T) {
			nw, err := cluster.RunSim(256, simnet.SwitchShared, sharedProf(4), set.algs,
				func(c *mpi.Comm) error {
					if tm := c.Topo(); tm == nil || tm.Segments() != 64 {
						return fmt.Errorf("expected 64 segments, got %v", tm)
					}
					return coretest.Conformance(c, scaleChunk, 0)
				})
			if err != nil {
				t.Fatal(err)
			}
			if drops := nw.SwitchStats().QueueDrops; drops != 0 {
				t.Fatalf("%d silent egress drops", drops)
			}
			// The two-level allgather and alltoall and the chunked
			// allreduce leave up to 255 multicasts undrained at a rank,
			// inside the 256-message receive ring; an overflow would be
			// a lost multicast.
			if over := nw.Stats.RingOverflows; over != 0 {
				t.Fatalf("%d receive-ring overflows", over)
			}
		})
	}
}

// TestTwoLevelUnevenSegmentsN256: fanout 6 leaves 42 full segments and
// a remainder of 4, and the root sits in that short tail — the
// placement bookkeeping the even sweep wiring never exercises at scale.
func TestTwoLevelUnevenSegmentsN256(t *testing.T) {
	nw, err := cluster.RunSim(256, simnet.SwitchShared, sharedProf(6), core.TwoLevelAlgorithms(),
		func(c *mpi.Comm) error {
			tm := c.Topo()
			if tm == nil || tm.Segments() != 43 || len(tm.Members(42)) != 4 {
				return fmt.Errorf("expected 43 segments with a 4-rank tail, got %v", tm)
			}
			return coretest.Conformance(c, scaleChunk, 255)
		})
	if err != nil {
		t.Fatal(err)
	}
	if drops := nw.SwitchStats().QueueDrops; drops != 0 {
		t.Fatalf("%d silent egress drops", drops)
	}
}

// TestTwoLevelSingleSegmentDelegatesN256: the degenerate delegation
// must hold at scale too — 256 ranks on ONE segment leave nothing to
// economize, so the two-level allreduce must be the flat algorithm
// frame for frame. (Allreduce keeps the single shared medium affordable;
// the full-conformance delegation check runs at small N.)
func TestTwoLevelSingleSegmentDelegatesN256(t *testing.T) {
	run := func(algs mpi.Algorithms) *simnet.Network {
		nw, err := cluster.RunSim(256, simnet.SwitchShared, sharedProf(300), algs,
			func(c *mpi.Comm) error {
				if tm := c.Topo(); tm == nil || tm.Segments() != 1 {
					return fmt.Errorf("expected a single-segment topology, got %v", tm)
				}
				send := []byte{byte(c.Rank())}
				recv := make([]byte, 1)
				return c.Allreduce(send, recv, mpi.Byte, mpi.OpMax)
			})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	twoLevel := run(core.TwoLevelAlgorithms())
	flat := run(core.Algorithms(core.Binary))
	for _, class := range []transport.Class{transport.ClassScout, transport.ClassData, transport.ClassControl, transport.ClassNack} {
		if got, want := twoLevel.Wire.Frames(class), flat.Wire.Frames(class); got != want {
			t.Errorf("single-segment two-level sent %d %v frames, flat sent %d", got, class, want)
		}
	}
}

// TestTwoLevelScaleN1024 is the opt-in long test (BENCH_LONG=1): the
// 256-segment fabric, verified allgather, allreduce and alltoall — not
// the full seven-collective oracle, whose work is quadratic in N. Its
// 1,024 senders exceed core's receive budget, so the allgather's and the
// alltoall's exchanges run in four windows of 256, each later one behind
// the multicast barrier: the test that the windows keep every receive
// ring from overflowing. With one window the allgather deadlocks here.
func TestTwoLevelScaleN1024(t *testing.T) {
	if os.Getenv("BENCH_LONG") == "" {
		t.Skip("set BENCH_LONG=1 to run the N=1024 scale test")
	}
	const n, chunk = 1024, 16
	nw, err := cluster.RunSim(n, simnet.SwitchShared, sharedProf(4), core.TwoLevelAlgorithms(),
		func(c *mpi.Comm) error {
			if tm := c.Topo(); tm == nil || tm.Segments() != 256 {
				return fmt.Errorf("expected 256 segments, got %v", tm)
			}
			me := c.Rank()
			send := bytes.Repeat([]byte{byte(me)}, chunk)
			recv := make([]byte, n*chunk)
			if err := c.Allgather(send, recv); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(recv[r*chunk:(r+1)*chunk], bytes.Repeat([]byte{byte(r)}, chunk)) {
					return fmt.Errorf("allgather: rank %d chunk %d corrupted", me, r)
				}
			}
			arRecv := make([]byte, chunk)
			if err := c.Allreduce(send, arRecv, mpi.Byte, mpi.OpMax); err != nil {
				return err
			}
			for i, b := range arRecv {
				if b != 0xff { // max of byte(0..1023) patterns is 255
					return fmt.Errorf("allreduce: rank %d elem %d = %d, want 255", me, i, b)
				}
			}
			// Chunk j of rank i's send buffer is {i, j} repeated.
			a2aSend := make([]byte, n*chunk)
			for j := 0; j < n; j++ {
				fillPair(a2aSend[j*chunk:(j+1)*chunk], me, j)
			}
			a2aRecv := make([]byte, n*chunk)
			if err := c.Alltoall(a2aSend, a2aRecv); err != nil {
				return err
			}
			want := make([]byte, chunk)
			for i := 0; i < n; i++ {
				fillPair(want, i, me)
				if !bytes.Equal(a2aRecv[i*chunk:(i+1)*chunk], want) {
					return fmt.Errorf("alltoall: rank %d chunk from %d corrupted", me, i)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if drops := nw.SwitchStats().QueueDrops; drops != 0 {
		t.Fatalf("%d silent egress drops", drops)
	}
	if over := nw.Stats.RingOverflows; over != 0 {
		t.Fatalf("%d receive-ring overflows", over)
	}
}

// fillPair fills b with the two-byte pattern of the chunk rank src sends
// to rank dst (each as a little-endian uint16, so 1,024 ranks stay
// distinct).
func fillPair(b []byte, src, dst int) {
	for k := range b {
		v := src
		if k%4 >= 2 {
			v = dst
		}
		b[k] = byte(v >> (8 * (k % 2)))
	}
}
