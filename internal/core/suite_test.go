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
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestSuiteFrameCounts verifies the frame-count model documented in
// suite.go against the simulator's wire counters, for the sequential
// and the pipelined schedules — pipelining reorders transmissions but
// must not add or remove a single frame.
func TestSuiteFrameCounts(t *testing.T) {
	const frag = simnet.MaxFragPayload
	for _, mode := range []core.Mode{core.Binary, core.BinaryPipelined} {
		for _, n := range []int{2, 4, 7, 8} {
			for _, chunk := range []int{0, 900, 3000} {
				mode, n, chunk := mode, n, chunk
				t.Run(fmt.Sprintf("%s/n=%d/M=%d", mode, n, chunk), func(t *testing.T) {
					chunkFrames := int64(trace.FramesForMessage(chunk, frag))
					allgather := func(topo simnet.Topology, algs mpi.Algorithms) *simnet.Network {
						nw, err := cluster.RunSim(n, topo, simnet.DefaultProfile(), algs, func(c *mpi.Comm) error {
							send := make([]byte, chunk)
							recv := make([]byte, n*chunk)
							return c.Allgather(send, recv)
						})
						if err != nil {
							t.Fatal(err)
						}
						return nw
					}

					// Allgather, one burst: (N-1) scouts + 1 release, then
					// every rank's ceil(M/T) data frames.
					nw := allgather(simnet.Switch, core.Algorithms(mode))
					if got, want := nw.Wire.Frames(transport.ClassScout), int64(n-1); got != want {
						t.Errorf("allgather scouts = %d, want N-1 = %d", got, want)
					}
					if got, want := nw.Wire.Frames(transport.ClassControl), int64(1); got != want {
						t.Errorf("allgather releases = %d, want %d", got, want)
					}
					if got, want := nw.Wire.Frames(transport.ClassData), int64(n)*chunkFrames; got != want {
						t.Errorf("allgather data frames = %d, want N·ceil(M/T) = %d", got, want)
					}

					// On the hub and under repair the allgather keeps N
					// rounds of (N-1) scouts + ceil(M/T) data, no release.
					for name, nw := range map[string]*simnet.Network{
						"hub":       allgather(simnet.Hub, core.Algorithms(mode)),
						"resilient": allgather(simnet.Switch, core.ResilientAlgorithms()),
					} {
						if got, want := nw.Wire.Frames(transport.ClassScout), int64(n*(n-1)); got != want {
							t.Errorf("%s allgather scouts = %d, want N(N-1) = %d", name, got, want)
						}
						if got := nw.Wire.Frames(transport.ClassControl); got != 0 {
							t.Errorf("%s allgather releases = %d, want 0", name, got)
						}
						if got, want := nw.Wire.Frames(transport.ClassData), int64(n)*chunkFrames; got != want {
							t.Errorf("%s allgather data frames = %d, want N·ceil(M/T) = %d", name, got, want)
						}
					}

					// Alltoall, one burst: (N-1) scouts + 1 release, then
					// every rank's N-1 per-slice multicasts of ceil(M/T)
					// frames — the pairwise baseline's targeted byte count,
					// no more.
					alltoall := func(topo simnet.Topology, algs mpi.Algorithms) *simnet.Network {
						nw, err := cluster.RunSim(n, topo, simnet.DefaultProfile(), algs, func(c *mpi.Comm) error {
							send := make([]byte, n*chunk)
							recv := make([]byte, n*chunk)
							return c.Alltoall(send, recv)
						})
						if err != nil {
							t.Fatal(err)
						}
						return nw
					}
					nw = alltoall(simnet.Switch, core.Algorithms(mode))
					if got, want := nw.Wire.Frames(transport.ClassScout), int64(n-1); got != want {
						t.Errorf("alltoall scouts = %d, want N-1 = %d", got, want)
					}
					if got, want := nw.Wire.Frames(transport.ClassControl), int64(1); got != want {
						t.Errorf("alltoall releases = %d, want %d", got, want)
					}
					if got, want := nw.Wire.Frames(transport.ClassData), int64(n*(n-1))*chunkFrames; got != want {
						t.Errorf("alltoall data frames = %d, want N(N-1)·ceil(M/T) = %d", got, want)
					}

					// On the hub and under repair the alltoall keeps N sliced
					// rounds of (N-1) scouts + (N-1)·ceil(M/T) data, no
					// release.
					for name, nw := range map[string]*simnet.Network{
						"hub":       alltoall(simnet.Hub, core.Algorithms(mode)),
						"resilient": alltoall(simnet.Switch, core.ResilientAlgorithms()),
					} {
						if got, want := nw.Wire.Frames(transport.ClassScout), int64(n*(n-1)); got != want {
							t.Errorf("%s alltoall scouts = %d, want N(N-1) = %d", name, got, want)
						}
						if got := nw.Wire.Frames(transport.ClassControl); got != 0 {
							t.Errorf("%s alltoall releases = %d, want 0", name, got)
						}
						if got, want := nw.Wire.Frames(transport.ClassData), int64(n*(n-1))*chunkFrames; got != want {
							t.Errorf("%s alltoall data frames = %d, want N(N-1)·ceil(M/T) = %d", name, got, want)
						}
					}

					// Allreduce: (N-1)·ceil(M/T) reduce frames + (N-1) scouts
					// + ceil(M/T) multicast data frames.
					size := chunk - chunk%8 // whole float64 elements
					nw, err := cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(),
						core.Algorithms(mode), func(c *mpi.Comm) error {
							send := make([]byte, size)
							recv := make([]byte, size)
							return c.Allreduce(send, recv, mpi.Float64, mpi.OpSum)
						})
					if err != nil {
						t.Fatal(err)
					}
					redFrames := int64(trace.FramesForMessage(size, frag))
					if got, want := nw.Wire.Frames(transport.ClassData), int64(n)*redFrames; got != want {
						t.Errorf("allreduce data frames = %d, want N·ceil(M/T) = %d", got, want)
					}

					// Gather: (N-1) scouts + 1 release + (N-1)·ceil(M/T) chunks.
					nw, err = cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(),
						core.Algorithms(mode), func(c *mpi.Comm) error {
							send := make([]byte, chunk)
							var recv []byte
							if c.Rank() == 0 {
								recv = make([]byte, n*chunk)
							}
							return c.Gather(send, recv, 0)
						})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := nw.Wire.Frames(transport.ClassScout), int64(n-1); got != want {
						t.Errorf("gather scouts = %d, want N-1 = %d", got, want)
					}
					if got, want := nw.Wire.Frames(transport.ClassControl), int64(1); got != want {
						t.Errorf("gather releases = %d, want %d", got, want)
					}
					if got, want := nw.Wire.Frames(transport.ClassData), int64(n-1)*chunkFrames; got != want {
						t.Errorf("gather chunk frames = %d, want (N-1)·ceil(M/T) = %d", got, want)
					}

					// Scatter (sliced): (N-1) scouts + (N-1)·ceil(M/T) data
					// frames, one per-slice multicast per receiver.
					nw, err = cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(),
						core.Algorithms(mode), func(c *mpi.Comm) error {
							var send []byte
							if c.Rank() == 0 {
								send = make([]byte, n*chunk)
							}
							recv := make([]byte, chunk)
							return c.Scatter(send, recv, 0)
						})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := nw.Wire.Frames(transport.ClassData), int64(n-1)*chunkFrames; got != want {
						t.Errorf("scatter data frames = %d, want (N-1)·ceil(M/T) = %d", got, want)
					}
				})
			}
		}
	}
}

// TestHubAllgatherDropsNothing pins why a burst needs more than one
// collision domain: on the hub, 32 stations multicasting at once exhaust
// CSMA/CD's attempt limit and drop frames, which a lossless allgather
// cannot survive. There the allgather keeps its scout-gated rounds, and
// every one of ten seeds completes with no frame dropped at any NIC.
func TestHubAllgatherDropsNothing(t *testing.T) {
	const n, chunk = 32, 5000
	for seed := uint64(1); seed <= 10; seed++ {
		prof := simnet.DefaultProfile()
		prof.Seed = seed
		nw, err := cluster.RunSim(n, simnet.Hub, prof, core.Algorithms(core.Binary), func(c *mpi.Comm) error {
			return c.Allgather(make([]byte, chunk), make([]byte, n*chunk))
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var drops int64
		for r := 0; r < n; r++ {
			drops += nw.Endpoint(r).NIC().Stats.Drops
		}
		if drops != 0 {
			t.Errorf("seed %d: %d frames dropped at the attempt limit", seed, drops)
		}
	}
}

// TestAllgatherBeyondBudgetKeepsRounds: past burstRecvBudget a burst
// would leave more foreign multicasts undrained than the receive ring
// holds, so at N=257 the lossless allgather keeps its N scout-gated
// rounds — N(N-1) scouts and no release.
func TestAllgatherBeyondBudgetKeepsRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("257-rank sim in -short mode")
	}
	const n = 257
	nw, err := cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(), core.Algorithms(core.Binary), func(c *mpi.Comm) error {
		return c.Allgather(make([]byte, 1), make([]byte, n))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := nw.Wire.Frames(transport.ClassScout), int64(n*(n-1)); got != want {
		t.Errorf("allgather scouts = %d, want N(N-1) = %d", got, want)
	}
	if got := nw.Wire.Frames(transport.ClassControl); got != 0 {
		t.Errorf("allgather releases = %d, want 0", got)
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
