package core_test

// Tests for the fragment-granular refactor: selective NACK repair
// (repair traffic scales with what was lost, not with message size),
// per-slice group addressing (a receiver's NIC delivers only the bytes
// addressed to it), and the chunked allreduce's per-rank byte ceiling.

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestSelectiveRepairOMissing is the acceptance criterion for selective
// NACK repair: with a single injected fragment loss, the repair costs
// the same number of data frames whether the message had 1 fragment or
// 64 — O(missing), not O(F). PR 2's message-level resend would have cost
// 64 frames for the large message (and usually failed to land intact).
func TestSelectiveRepairOMissing(t *testing.T) {
	const n = 4
	frag := simnet.MaxFragPayload
	repairFrames := func(t *testing.T, msgBytes, dropIndex int) int64 {
		t.Helper()
		prof := simnet.DefaultProfile()
		dropped := false
		prof.DropFrag = func(dst int, f transport.Fragment) bool {
			if !dropped && dst == 3 && f.Msg.Class == transport.ClassData && int(f.Index) == dropIndex {
				dropped = true
				return true
			}
			return false
		}
		algs := core.ResilientAlgorithms()
		nw, err := cluster.RunSim(n, simnet.Switch, prof, algs, func(c *mpi.Comm) error {
			buf := make([]byte, msgBytes)
			return c.Bcast(buf, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		if nw.Stats.InjectedLosses != 1 {
			t.Fatalf("injected %d losses, want exactly 1", nw.Stats.InjectedLosses)
		}
		initial := int64((msgBytes + frag - 1) / frag)
		if msgBytes == 0 {
			initial = 1
		}
		return nw.Wire.Frames(transport.ClassData) - initial
	}

	small := repairFrames(t, 1000, 0)     // 1 fragment, lose it entirely
	large := repairFrames(t, 64*frag, 37) // 64 fragments, lose one
	if small != large {
		t.Errorf("repair frames differ: %d for a 1-fragment message, %d for a 64-fragment message — repair is O(F), not O(missing)", small, large)
	}
	if large != 1 {
		t.Errorf("single lost fragment of a 64-fragment message cost %d repair frames, want 1", large)
	}
}

// TestSliceFilteringDeliveredBytes is the slice-addressing acceptance
// criterion: per-receiver delivered bytes for the sliced ScatterMcast
// and AlltoallMcast stay within 1.1× of the pairwise-unicast byte count
// ((N-1)·M for alltoall, M for scatter), because fragments of foreign
// slices are dropped by the NIC's multicast filter instead of being
// delivered.
func TestSliceFilteringDeliveredBytes(t *testing.T) {
	const n, chunk = 8, 2000
	run := func(t *testing.T, algs mpi.Algorithms, op string) *simnet.Network {
		t.Helper()
		nw, err := cluster.RunSim(n, simnet.Hub, simnet.DefaultProfile(), algs,
			func(c *mpi.Comm) error {
				if op == "scatter" {
					var send []byte
					if c.Rank() == 0 {
						send = make([]byte, n*chunk)
					}
					return c.Scatter(send, make([]byte, chunk), 0)
				}
				send := make([]byte, n*chunk)
				recv := make([]byte, n*chunk)
				return c.Alltoall(send, recv)
			})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}

	t.Run("alltoall-sliced", func(t *testing.T) {
		nw := run(t, core.Algorithms(core.Binary), "alltoall")
		want := int64((n - 1) * chunk)
		for r := 0; r < n; r++ {
			got := nw.Endpoint(r).Delivered().DataBytes
			if float64(got) > 1.1*float64(want) {
				t.Errorf("rank %d delivered %d data bytes, want ≤ 1.1× unicast count %d", r, got, want)
			}
		}
	})
	t.Run("scatter-sliced", func(t *testing.T) {
		nw := run(t, core.Algorithms(core.Binary), "scatter")
		for r := 1; r < n; r++ {
			got := nw.Endpoint(r).Delivered().DataBytes
			if float64(got) > 1.1*float64(chunk) {
				t.Errorf("rank %d delivered %d data bytes, want ≤ 1.1× unicast count %d", r, got, chunk)
			}
		}
	})
}

// TestChunkedAllreduceByteFunnel is the chunked-allreduce acceptance
// criterion: the per-slice binomial reduce-scatter plus multicast
// allgather moves at most ~2M bytes through any single rank ((N-1)M/N
// received on each half), while the binomial-reduce composition funnels
// log2(N)·M into rank 0 on the reduce half alone.
func TestChunkedAllreduceByteFunnel(t *testing.T) {
	const n = 8
	const m = 8192
	run := func(t *testing.T, algs mpi.Algorithms) *simnet.Network {
		t.Helper()
		nw, err := cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(), algs,
			func(c *mpi.Comm) error {
				send := make([]byte, m)
				recv := make([]byte, m)
				return c.Allreduce(send, recv, mpi.Byte, mpi.OpMax)
			})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	maxDelivered := func(nw *simnet.Network) (worst int64, at int) {
		for r := 0; r < n; r++ {
			if got := nw.Endpoint(r).Delivered().DataBytes; got > worst {
				worst, at = got, r
			}
		}
		return worst, at
	}

	chunkedAlgs := core.Algorithms(core.Binary)
	chunkedAlgs.Allreduce = core.AllreduceMcastChunked
	chunkedMax, chunkedAt := maxDelivered(run(t, chunkedAlgs))
	binomialMax, binomialAt := maxDelivered(run(t, core.Algorithms(core.Binary)))

	// Chunked: each rank receives (N-1)M/N on the reduce-scatter and
	// (N-1)M/N on the allgather — under 2M with room for rounding.
	if float64(chunkedMax) > 2.0*m {
		t.Errorf("chunked allreduce funnels %d bytes through rank %d, want ≤ 2M = %d", chunkedMax, chunkedAt, 2*m)
	}
	// Binomial: rank 0 receives log2(N)·M = 3M on the reduce half.
	if float64(binomialMax) < 2.5*m {
		t.Errorf("binomial allreduce max per-rank bytes %d at rank %d — expected the ≥ log2(N)·M funnel this test contrasts against", binomialMax, binomialAt)
	}
	t.Logf("per-rank byte funnel: chunked max %d (rank %d) vs binomial max %d (rank %d), M=%d",
		chunkedMax, chunkedAt, binomialMax, binomialAt, m)
	_ = fmt.Sprint()
}

// TestChunkedReduceScatterMessages counts the chunked allreduce's
// reduce-scatter: its point-to-point data messages, one frame each at
// 100 B, told apart by phase from the allgather's (the members' slices
// to their leader). On S segments of F members each the segment walks
// cost every rank F-1 messages and the lane step log2(S) where S is a
// power of two (recursive halving), S-1 elsewhere (walks); on uneven
// segments and on the flat switch the one-level walks cost every rank
// N-1.
func TestChunkedReduceScatterMessages(t *testing.T) {
	for _, tc := range []struct {
		topo simnet.Topology
		n    int
		want int64
	}{
		// Halving: 80. It read 96 = 16·(3+3) while the lane step was S
		// walks; one level: 240.
		{simnet.SwitchShared, 16, 16 * (3 + 2)},
		// At S=2 halving and walks are the same one message; one level: 56.
		{simnet.SwitchShared, 8, 8 * (3 + 1)},
		{simnet.SwitchShared, 24, 24 * (3 + 5)}, // S=6 keeps its walks
		{simnet.SwitchShared, 7, 7 * 6},         // 4+3: one level
		{simnet.SwitchShared, 6, 6 * 5},         // 4+2: one level
		{simnet.Switch, 8, 8 * 7},
	} {
		prof := simnet.DefaultProfile()
		prof.UplinkFanout = 4
		var msgs int64
		prof.DropP2P = func(_ int, f transport.Fragment) bool {
			if phase, ok := mpi.CollPhase(f.Msg); ok && phase >= core.PhaseSlice && f.Msg.Class == transport.ClassData && f.Index == 0 {
				msgs++
			}
			return false
		}
		_, err := cluster.RunSim(tc.n, tc.topo, prof, chunkedAlgorithms(), func(c *mpi.Comm) error {
			return c.Allreduce(make([]byte, 100), make([]byte, 100), mpi.Byte, mpi.OpMax)
		})
		if err != nil {
			t.Fatal(err)
		}
		if msgs != tc.want {
			t.Errorf("%v N=%d: reduce-scatter sent %d point-to-point data messages, want %d", tc.topo, tc.n, msgs, tc.want)
		}
	}
}

// TestChunkedGatherFrames counts the chunked allreduce's allgather on
// even segments, which needs no scouts: the reduce-scatter already
// proves every rank has entered. Where a segment's reduced slices fit
// one frame (100 B), the F-1 members of each of the S segments send
// their slice to the leader and the S leaders multicast once each;
// beyond (8,000 B) every rank multicasts its own slice, N in all. Where
// the lane gather wins (plan's laneGather: N=64 is S=16 segments of F=4,
// and a lane's slices fit one frame at 100 and 2,000 B), each lane's S-1
// members send their blocks up a binomial tree to the lane's member in
// segment 0, and those F members multicast once each. The N=64, 100 B
// row read {48, 16}, the leaders' set, before the lane gather.
func TestChunkedGatherFrames(t *testing.T) {
	for _, tc := range []struct {
		n, size          int
		unicasts, mcasts int
	}{
		{8, 100, 3 * 2, 2},
		{16, 100, 3 * 4, 4},
		{64, 100, 15 * 4, 4},
		{64, 2000, 15 * 4, 4},
		{8, 8000, 0, 8},
		{16, 8000, 0, 16},
	} {
		prof := sharedProf(4)
		var unicasts int
		prof.DropP2P = func(_ int, f transport.Fragment) bool {
			if phase, ok := mpi.CollPhase(f.Msg); ok && phase == core.PhaseChunk && f.Index == 0 {
				unicasts++
			}
			return false
		}
		type mcast struct {
			src int
			seq uint32
		}
		mcasts := make(map[mcast]bool)
		prof.DropFrag = func(_ int, f transport.Fragment) bool {
			if f.Msg.Class == transport.ClassData {
				mcasts[mcast{f.Msg.Src, f.Msg.Seq}] = true
			}
			return false
		}
		nw, err := cluster.RunSim(tc.n, simnet.SwitchShared, prof, chunkedAlgorithms(), func(c *mpi.Comm) error {
			return coretest.CheckOp(c, "allreduce", tc.size, 0)
		})
		if err != nil {
			t.Fatalf("N=%d %d B: %v", tc.n, tc.size, err)
		}
		if scouts := nw.Wire.Frames(transport.ClassScout); scouts != 0 {
			t.Errorf("N=%d %d B: %d scout frames, want 0", tc.n, tc.size, scouts)
		}
		// CheckOp runs a second, Int64, allreduce when the size holds whole
		// elements: its slices are the same size, so it takes the same branch.
		ops := 1
		if tc.size%8 == 0 {
			ops = 2
		}
		if unicasts != ops*tc.unicasts || len(mcasts) != ops*tc.mcasts {
			t.Errorf("N=%d %d B: %d slice unicasts and %d data multicasts, want %d and %d per allreduce over %d allreduces",
				tc.n, tc.size, unicasts, len(mcasts), tc.unicasts, tc.mcasts, ops)
		}
	}
}
