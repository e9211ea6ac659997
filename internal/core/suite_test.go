package core_test

// Frame-count and performance properties of the multicast suite. The
// correctness of every collective against the oracle — on both
// transports, under strict posted-receive semantics with a lagging
// rank, and under injected fragment loss — lives in the suite-wide
// conformance harness (conformance_test.go, internal/core/coretest);
// this file checks the wire-level claims the frame model in suite.go
// makes, and the latency claims of the figure experiments.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestSuiteFrameCounts verifies the frame-count model documented in
// suite.go against the simulator's wire counters for the binary set.
func TestSuiteFrameCounts(t *testing.T) {
	const frag = simnet.MaxFragPayload
	algs := core.Algorithms(core.Binary)
	for _, n := range []int{2, 4, 7, 8} {
		for _, chunk := range []int{0, 900, 3000} {
			n, chunk := n, chunk
			t.Run(fmt.Sprintf("%s/n=%d/M=%d", core.Binary, n, chunk), func(t *testing.T) {
				chunkFrames := int64(trace.FramesForMessage(chunk, frag))
				run := func(topo simnet.Topology, set mpi.Algorithms, fn func(c *mpi.Comm) error) *simnet.Network {
					nw, err := cluster.RunSim(n, topo, simnet.DefaultProfile(), set, fn)
					if err != nil {
						t.Fatal(err)
					}
					return nw
				}
				allgather := func(c *mpi.Comm) error {
					return c.Allgather(make([]byte, chunk), make([]byte, n*chunk))
				}
				alltoall := func(c *mpi.Comm) error {
					return c.Alltoall(make([]byte, n*chunk), make([]byte, n*chunk))
				}
				frames := func(name string, nw *simnet.Network, scouts, releases, data int64) {
					t.Helper()
					for _, f := range []struct {
						class transport.Class
						want  int64
					}{{transport.ClassScout, scouts}, {transport.ClassControl, releases}, {transport.ClassData, data}} {
						if got := nw.Wire.Frames(f.class); got != f.want {
							t.Errorf("%s: %v frames = %d, want %d", name, f.class, got, f.want)
						}
					}
				}

				// Allgather and alltoall, one burst on the switch and on
				// the hub alike: (N-1) scouts + 1 release, then every
				// rank's ceil(M/T) data frames — the alltoall's N-1
				// per-slice multicasts of ceil(M/T) each, the pairwise
				// baseline's targeted byte count, no more.
				for _, topo := range []simnet.Topology{simnet.Switch, simnet.Hub} {
					frames(fmt.Sprintf("%s allgather", topo), run(topo, algs, allgather), int64(n-1), 1, int64(n)*chunkFrames)
					frames(fmt.Sprintf("%s alltoall", topo), run(topo, algs, alltoall), int64(n-1), 1, int64(n*(n-1))*chunkFrames)
				}

				// Under repair both keep N rounds of (N-1) scouts and the
				// same data, no release.
				rep := core.ResilientAlgorithms()
				frames("resilient allgather", run(simnet.Switch, rep, allgather), int64(n*(n-1)), 0, int64(n)*chunkFrames)
				frames("resilient alltoall", run(simnet.Switch, rep, alltoall), int64(n*(n-1)), 0, int64(n*(n-1))*chunkFrames)

				// Allreduce: (N-1)·ceil(M/T) reduce frames + (N-1) scouts
				// + ceil(M/T) multicast data frames.
				size := chunk - chunk%8 // whole float64 elements
				nw := run(simnet.Switch, algs, func(c *mpi.Comm) error {
					return c.Allreduce(make([]byte, size), make([]byte, size), mpi.Float64, mpi.OpSum)
				})
				redFrames := int64(trace.FramesForMessage(size, frag))
				if got, want := nw.Wire.Frames(transport.ClassData), int64(n)*redFrames; got != want {
					t.Errorf("allreduce data frames = %d, want N·ceil(M/T) = %d", got, want)
				}

				// Gather: (N-1) scouts + 1 release + (N-1)·ceil(M/T) chunks.
				nw = run(simnet.Switch, algs, func(c *mpi.Comm) error {
					var recv []byte
					if c.Rank() == 0 {
						recv = make([]byte, n*chunk)
					}
					return c.Gather(make([]byte, chunk), recv, 0)
				})
				frames("gather", nw, int64(n-1), 1, int64(n-1)*chunkFrames)

				// Scatter (sliced): (N-1) scouts + (N-1)·ceil(M/T) data
				// frames, one per-slice multicast per receiver.
				nw = run(simnet.Switch, algs, func(c *mpi.Comm) error {
					var send []byte
					if c.Rank() == 0 {
						send = make([]byte, n*chunk)
					}
					return c.Scatter(send, make([]byte, chunk), 0)
				})
				if got, want := nw.Wire.Frames(transport.ClassData), int64(n-1)*chunkFrames; got != want {
					t.Errorf("scatter data frames = %d, want (N-1)·ceil(M/T) = %d", got, want)
				}
			})
		}
	}
}

// TestHubAllgatherDropsNothing is the drop sweep that pins how a burst
// runs on one collision domain: on a hub, N stations multicasting at
// once exhaust CSMA/CD's attempt limit and drop frames, which a lossless
// burst cannot survive, so there the ranks take their turns in slot
// order. Over N ∈ {16, 32, 64}, sizes around one frame and past it, and
// seeds 1–10:
//
//   - the allgather completes with no frame dropped at any NIC;
//   - the alltoall completes at every seed. It sends the next rank's
//     slice last, so the owner of the next slot starts only after this
//     rank's last frame; in the switch's ring order (the next rank's
//     slice first) the sweep deadlocks. Its NICs do drop frames — 44
//     at N=16, 187 at N=32 and 738 at N=64 over the 70 runs of each —
//     but every one of them is a unicast stream ack lost to the capture
//     effect during a long data train, which the reliable stream
//     repairs.
//   - the chunked allreduce completes at every seed. Its gather sends
//     no scouts, gated by the reduce-scatter, whose N-1 unicasts per
//     rank leave at once. Its NICs drop 0, 104 and 3,499 frames at
//     N=16, 32 and 64, and not one is a multicast of the collective:
//     87 and 1,068 are the IGMP membership reports the ranks send as
//     they join their groups at start-up, which race the first
//     unicasts (a NIC learns its groups from the join itself, so
//     nothing is lost), and the rest are unicast data (17 and 2,150)
//     and stream acks (0 and 281), which the reliable stream repairs.
func TestHubAllgatherDropsNothing(t *testing.T) {
	for _, op := range []string{"allgather", "alltoall", "allreduce"} {
		algs := core.Algorithms(core.Binary)
		if op == "allreduce" {
			algs = chunkedAlgorithms()
		}
		for _, n := range []int{16, 32, 64} {
			t.Run(fmt.Sprintf("%s/n=%d", op, n), func(t *testing.T) {
				var drops int64
				for _, chunk := range []int{0, 1, 1471, 1472, 1473, 4000, 5000} {
					for seed := uint64(1); seed <= 10; seed++ {
						prof := simnet.DefaultProfile()
						prof.Seed = seed
						nw, err := cluster.RunSim(n, simnet.Hub, prof, algs, func(c *mpi.Comm) error {
							switch op {
							case "alltoall":
								return c.Alltoall(make([]byte, n*chunk), make([]byte, n*chunk))
							case "allreduce":
								return c.Allreduce(make([]byte, chunk), make([]byte, chunk), mpi.Byte, mpi.OpMax)
							}
							return c.Allgather(make([]byte, chunk), make([]byte, n*chunk))
						})
						if err != nil {
							t.Fatalf("%d B, seed %d: %v", chunk, seed, err)
						}
						for r := 0; r < n; r++ {
							drops += nw.Endpoint(r).NIC().Stats.Drops
						}
					}
				}
				t.Logf("%d frames dropped at the attempt limit", drops)
				if op == "allgather" && drops != 0 {
					t.Errorf("%d frames dropped at the attempt limit", drops)
				}
			})
		}
	}
}

// TestExchangeWindowsBeyondBudget: past burstRecvBudget the lossless
// exchange runs its slots in windows of 256, every window after the
// first behind the multicast barrier, so at N=257 no rank holds more
// undrained multicasts than the receive ring bounds and the burst still
// runs — two windows, one barrier between them, and not N scout-gated
// rounds (N(N-1) = 65,792 scouts). Every result is checked against the
// oracle, and the counts are exact: the burst's handshake and the one
// drain barrier, N-1 scouts and one release each; the chunked
// allreduce's gather has only the drain barrier, its reduce-scatter
// being its evidence, and N(N-1) reduce-scatter messages beside its N
// slice multicasts; the two-level alltoall one block per rank and
// segment (65 segments at fanout 4), less the lone rank's own.
func TestExchangeWindowsBeyondBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("257-rank sims in -short mode")
	}
	const n = 257
	shared := simnet.DefaultProfile()
	shared.UplinkFanout = 4
	for _, tc := range []struct {
		name              string
		topo              simnet.Topology
		prof              simnet.Profile
		algs              mpi.Algorithms
		op                string
		chunk             int
		scouts, ctl, data int64
	}{
		{"allgather", simnet.Switch, simnet.DefaultProfile(), core.Algorithms(core.Binary), "allgather", 1, 512, 2, n},
		{"alltoall", simnet.Switch, simnet.DefaultProfile(), core.Algorithms(core.Binary), "alltoall", 1, 512, 2, n * (n - 1)},
		{"chunked allreduce", simnet.Switch, simnet.DefaultProfile(), chunkedAlgorithms(), "allreduce", n, 256, 1, n*(n-1) + n},
		{"two-level alltoall", simnet.SwitchShared, shared, core.TwoLevelAlgorithms(), "alltoall", 1, 512, 2, n*65 - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := cluster.RunSim(n, tc.topo, tc.prof, tc.algs, func(c *mpi.Comm) error {
				return coretest.CheckOp(c, tc.op, tc.chunk, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			got := [3]int64{nw.Wire.Frames(transport.ClassScout), nw.Wire.Frames(transport.ClassControl), nw.Wire.Frames(transport.ClassData)}
			if want := [3]int64{tc.scouts, tc.ctl, tc.data}; got != want {
				t.Errorf("scout/control/data frames = %v, want %v", got, want)
			}
			if over := nw.Stats.RingOverflows; over != 0 {
				t.Errorf("%d receive-ring overflows", over)
			}
		})
	}
}

// TestResilientHappyPathFrameOverhead: with nothing lost, the resilient
// suite sends the data exactly once per round (no duplicate multicasts)
// and pays only the per-round acknowledgment frames for the repair
// capability.
func TestResilientHappyPathFrameOverhead(t *testing.T) {
	const n, chunk = 5, 2000
	const frag = simnet.MaxFragPayload
	nw, err := cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(),
		core.ResilientAlgorithms(), func(c *mpi.Comm) error {
			send := make([]byte, chunk)
			recv := make([]byte, n*chunk)
			return c.Allgather(send, recv)
		})
	if err != nil {
		t.Fatal(err)
	}
	chunkFrames := int64(trace.FramesForMessage(chunk, frag))
	if got, want := nw.Wire.Frames(transport.ClassData), int64(n)*chunkFrames; got != want {
		t.Errorf("resilient allgather data frames = %d, want exactly-once %d", got, want)
	}
	if got := nw.Wire.Frames(transport.ClassNack); got != 0 {
		t.Errorf("happy path sent %d NACKs", got)
	}
	if got, want := nw.Wire.Frames(transport.ClassAck), int64(n*(n-1)); got != want {
		t.Errorf("confirmations = %d, want N(N-1) = %d", got, want)
	}
}

// TestUnsyncAllgatherLosesToSlowReceiver is the loss-injection converse:
// the same rounds without scout gating multicast into ranks that have not
// posted yet, the fragments are dropped, and the collective deadlocks —
// the failure mode AllgatherMcast's scouts prevent.
func TestUnsyncAllgatherLosesToSlowReceiver(t *testing.T) {
	unsafeAllgather := func(c *mpi.Comm, send, recv []byte) error {
		size := c.Size()
		n := len(send)
		copy(recv[c.Rank()*n:], send)
		for r := 0; r < size; r++ {
			cc := c.BeginColl()
			if c.Rank() == r {
				if err := cc.Multicast(mpi.Whole, recv[r*n:(r+1)*n], transport.ClassData); err != nil {
					return err
				}
				continue
			}
			m, err := cc.RecvMulticast(mpi.Whole)
			if err != nil {
				return err
			}
			copy(recv[r*n:(r+1)*n], m.Payload)
		}
		return nil
	}
	prof := simnet.DefaultProfile()
	prof.StrictPosted = true
	nw, err := cluster.RunSim(4, simnet.Switch, prof,
		mpi.Algorithms{Allgather: unsafeAllgather}, func(c *mpi.Comm) error {
			if c.Rank() == 2 {
				cluster.SimComm(c).Proc().Sleep(1 * sim.Millisecond)
			}
			send := make([]byte, 200)
			recv := make([]byte, 4*200)
			return c.Allgather(send, recv)
		})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock from lost multicast, got %v", err)
	}
	if nw.Stats.McastDropsNotPosted == 0 {
		t.Fatal("expected not-posted multicast drops")
	}
}

// TestAllgatherMcastBeatsRingOnHub encodes the acceptance criterion: on
// the shared hub with N >= 8 and chunks of at least one Ethernet frame,
// the multicast allgather must beat the baseline ring.
func TestAllgatherMcastBeatsRingOnHub(t *testing.T) {
	measure := func(algs mpi.Algorithms, n, chunk int) int64 {
		var worst int64
		_, err := cluster.RunSim(n, simnet.Hub, simnet.DefaultProfile(), algs,
			func(c *mpi.Comm) error {
				send := make([]byte, chunk)
				recv := make([]byte, n*chunk)
				if err := c.Allgather(send, recv); err != nil {
					return err
				}
				if c.Now() > worst {
					worst = c.Now()
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	for _, n := range []int{8, 9} {
		for _, chunk := range []int{1500, 4000} {
			mcast := measure(core.Algorithms(core.Binary), n, chunk)
			ring := measure(baseline.Algorithms(), n, chunk)
			if mcast >= ring {
				t.Errorf("n=%d chunk=%d: mcast allgather (%dns) not faster than ring (%dns)", n, chunk, mcast, ring)
			}
		}
	}
}

// TestAllreduceMcastBeatsBaselineOnHub: same acceptance criterion for the
// allreduce composition.
func TestAllreduceMcastBeatsBaselineOnHub(t *testing.T) {
	measure := func(algs mpi.Algorithms, n, size int) int64 {
		var worst int64
		_, err := cluster.RunSim(n, simnet.Hub, simnet.DefaultProfile(), algs,
			func(c *mpi.Comm) error {
				send := make([]byte, size)
				recv := make([]byte, size)
				if err := c.Allreduce(send, recv, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
				if c.Now() > worst {
					worst = c.Now()
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	for _, n := range []int{8, 9} {
		for _, size := range []int{1504, 4000} {
			mcast := measure(core.Algorithms(core.Binary), n, size)
			base := measure(baseline.Algorithms(), n, size)
			if mcast >= base {
				t.Errorf("n=%d size=%d: mcast allreduce (%dns) not faster than baseline (%dns)", n, size, mcast, base)
			}
		}
	}
}
