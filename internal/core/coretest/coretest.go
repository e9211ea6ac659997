// Package coretest is the suite-wide conformance harness for the
// collective implementations. One Conformance pass drives all seven
// collectives — Bcast, Barrier, Allgather, Allreduce, Scatter, Gather,
// Alltoall — back to back in a single world with deterministic,
// role-dependent input patterns, and verifies every rank's outputs
// against a pure (communication-free) oracle computed locally. Running
// the operations in sequence also exercises the per-communicator
// collective sequence numbering that keeps back-to-back protocols apart.
//
// The harness is transport-agnostic: a Runner executes the rank program
// on the in-process channel transport (MemRunner), or on the simulated
// Fast Ethernet testbed (SimRunner) where it can additionally inject a
// lagging rank under strict posted-receive semantics, or seed
// deterministic fragment loss, and reports the network's loss counters
// for the caller to assert on. Every algorithm set — the MPICH
// baseline, the paper's multicast suite, the chunked and two-level
// variants and the NACK-repaired resilient sets — runs through the same
// checks, replacing per-collective ad-hoc tests.
package coretest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Case is one conformance configuration: a world size, a per-rank chunk
// size in bytes, and the root used by the rooted collectives.
type Case struct {
	N     int
	Chunk int
	Root  int
}

// Grid builds the cross product of world sizes and chunk sizes, rooted
// at 0 and additionally at N-1 (the two roots exercise both ends of the
// relative-rank rotation in the binomial walks).
func Grid(sizes, chunks []int) []Case {
	var out []Case
	for _, n := range sizes {
		for _, m := range chunks {
			out = append(out, Case{N: n, Chunk: m, Root: 0})
			if n > 1 {
				out = append(out, Case{N: n, Chunk: m, Root: n - 1})
			}
		}
	}
	return out
}

// Stats aggregates the loss and wire counters a Runner observed, so
// loss-sweep tests can relate repair traffic to losses: with
// fragment-granular repair, extra data frames should track
// InjectedLosses, not the fragment count of the messages they repair.
type Stats struct {
	// McastDropsNotPosted counts strict-mode losses (receiver not ready).
	McastDropsNotPosted int64
	// InjectedLosses counts random multicast fragment losses.
	InjectedLosses int64
	// InjectedP2PLosses counts injected bypass point-to-point losses
	// (data, scouts, NACKs, stream acks and probes alike).
	InjectedP2PLosses int64
	// DataFrames counts ClassData frames put on the wire (initial
	// transmissions plus any repairs).
	DataFrames int64
	// NackFrames counts repair-request frames.
	NackFrames int64
	// AckFrames counts acknowledgment frames.
	AckFrames int64
	// StreamFrames counts reliable-stream protocol frames (acks, probes).
	StreamFrames int64
	// StreamRetransmits counts stream data fragments retransmitted.
	StreamRetransmits int64
	// SilentDrops counts receive-ring overflows and unjoined switch
	// multicasts (simnet.Network.SilentDrops).
	SilentDrops int64
}

func (s *Stats) add(o Stats) {
	s.McastDropsNotPosted += o.McastDropsNotPosted
	s.InjectedLosses += o.InjectedLosses
	s.InjectedP2PLosses += o.InjectedP2PLosses
	s.DataFrames += o.DataFrames
	s.NackFrames += o.NackFrames
	s.AckFrames += o.AckFrames
	s.StreamFrames += o.StreamFrames
	s.StreamRetransmits += o.StreamRetransmits
	s.SilentDrops += o.SilentDrops
}

// Runner executes one rank program per rank of an n-way world under the
// given algorithm set and reports transport loss counters (zero for
// transports without a loss model).
type Runner func(n int, algs mpi.Algorithms, fn func(c *mpi.Comm) error) (Stats, error)

// MemRunner runs on the in-process channel transport (real goroutines,
// no timing model) — the fastest cross-validation surface, and the one
// the race detector sees real concurrency on.
func MemRunner() Runner {
	return func(n int, algs mpi.Algorithms, fn func(c *mpi.Comm) error) (Stats, error) {
		return Stats{}, mpi.RunMem(n, algs, fn)
	}
}

// SimRunner runs on the simulated Fast Ethernet testbed. When lag is
// positive, rank N/2 sleeps that long before entering the program —
// the lagging-receiver scenario the scout protocols exist for. The
// profile chooses topology-independent semantics: StrictPosted for
// VIA-style posted-receive losses, LossRate for injected fragment loss
// (deterministic under the profile's seed).
func SimRunner(topo simnet.Topology, prof simnet.Profile, lag sim.Duration) Runner {
	return func(n int, algs mpi.Algorithms, fn func(c *mpi.Comm) error) (Stats, error) {
		return LaggardRunner(topo, prof, n/2, lag)(n, algs, fn)
	}
}

// LaggardRunner is SimRunner with the lagging rank named: when lag is
// positive, rank laggard sleeps that long before entering the program.
func LaggardRunner(topo simnet.Topology, prof simnet.Profile, laggard int, lag sim.Duration) Runner {
	return func(n int, algs mpi.Algorithms, fn func(c *mpi.Comm) error) (Stats, error) {
		nw, err := cluster.RunSim(n, topo, prof, algs, func(c *mpi.Comm) error {
			if lag > 0 && c.Rank() == laggard {
				cluster.SimComm(c).Proc().Sleep(lag)
			}
			return fn(c)
		})
		var st Stats
		if nw != nil {
			st.McastDropsNotPosted = nw.Stats.McastDropsNotPosted
			st.InjectedLosses = nw.Stats.InjectedLosses
			st.InjectedP2PLosses = nw.Stats.InjectedP2PLosses
			st.DataFrames = nw.Wire.Frames(transport.ClassData)
			st.NackFrames = nw.Wire.Frames(transport.ClassNack)
			st.AckFrames = nw.Wire.Frames(transport.ClassAck)
			st.StreamFrames = nw.Wire.Frames(transport.ClassStream)
			st.StreamRetransmits = nw.Stats.Stream.Retransmits.Load()
			st.SilentDrops = nw.SilentDrops()
		}
		return st, err
	}
}

// pattern is the deterministic input byte for position i of the buffer
// role (op, from, to). Different collectives, senders and destinations
// all get distinct patterns, so a buffer mix-up cannot cancel out.
func pattern(op byte, from, to, i int) byte {
	return byte(int(op)*89 + from*37 + to*17 + i*7 + 5)
}

func fill(op byte, from, to, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = pattern(op, from, to, i)
	}
	return b
}

// Ops lists the collective operations CheckOp knows, in the order
// Conformance runs them.
var Ops = []string{"bcast", "barrier", "allgather", "allreduce", "scatter", "gather", "alltoall"}

// CheckOp runs one collective operation on c with chunk bytes per rank
// rooted at root (ignored by the unrooted ops) and verifies this rank's
// outputs against the pure oracle. The chaos harness uses it to run and
// re-verify a single collective — on the original communicator and
// again on a shrunken survivor communicator — while Conformance chains
// all seven.
func CheckOp(c *mpi.Comm, op string, chunk, root int) error {
	n := c.Size()
	me := c.Rank()
	switch op {
	case "bcast":
		// Bcast: every rank must end with the root's pattern.
		buf := make([]byte, chunk)
		if me == root {
			copy(buf, fill('b', root, 0, chunk))
		}
		if err := c.Bcast(buf, root); err != nil {
			return fmt.Errorf("bcast: %w", err)
		}
		if !bytes.Equal(buf, fill('b', root, 0, chunk)) {
			return fmt.Errorf("bcast: rank %d buffer corrupted", me)
		}

	case "barrier":
		// Barrier: completion is the property.
		if err := c.Barrier(); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}

	case "allgather":
		// Allgather: concatenation of every rank's chunk, everywhere.
		ag := make([]byte, n*chunk)
		if err := c.Allgather(fill('g', me, 0, chunk), ag); err != nil {
			return fmt.Errorf("allgather: %w", err)
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(ag[r*chunk:(r+1)*chunk], fill('g', r, 0, chunk)) {
				return fmt.Errorf("allgather: rank %d chunk %d corrupted", me, r)
			}
		}

	case "allreduce":
		// Allreduce over bytes with OpMax: the elementwise maximum of
		// all ranks' patterns, computable locally.
		arSend := fill('r', me, 0, chunk)
		arRecv := make([]byte, chunk)
		if err := c.Allreduce(arSend, arRecv, mpi.Byte, mpi.OpMax); err != nil {
			return fmt.Errorf("allreduce: %w", err)
		}
		for i := 0; i < chunk; i++ {
			var want byte
			for r := 0; r < n; r++ {
				if v := pattern('r', r, 0, i); v > want {
					want = v
				}
			}
			if arRecv[i] != want {
				return fmt.Errorf("allreduce: rank %d elem %d = %d, want %d", me, i, arRecv[i], want)
			}
		}
		// Typed allreduce (Int64 sum) when the chunk holds whole
		// elements, so datatype decoding stays covered.
		if chunk > 0 && chunk%8 == 0 {
			vals := make([]int64, chunk/8)
			var wantSum int64
			for i := range vals {
				vals[i] = int64(me*1000 + i)
			}
			for r := 0; r < n; r++ {
				wantSum += int64(r * 1000)
			}
			recv := make([]byte, chunk)
			if err := c.Allreduce(mpi.Int64sToBytes(vals), recv, mpi.Int64, mpi.OpSum); err != nil {
				return fmt.Errorf("allreduce int64: %w", err)
			}
			got := mpi.BytesToInt64s(recv)
			for i := range got {
				if got[i] != wantSum+int64(i*n) {
					return fmt.Errorf("allreduce int64: rank %d elem %d = %d, want %d", me, i, got[i], wantSum+int64(i*n))
				}
			}
		}

	case "scatter":
		// Scatter: rank k keeps slice k of the root's buffer.
		var scSend []byte
		if me == root {
			scSend = make([]byte, n*chunk)
			for r := 0; r < n; r++ {
				copy(scSend[r*chunk:], fill('s', root, r, chunk))
			}
		}
		scRecv := make([]byte, chunk)
		if err := c.Scatter(scSend, scRecv, root); err != nil {
			return fmt.Errorf("scatter: %w", err)
		}
		if !bytes.Equal(scRecv, fill('s', root, me, chunk)) {
			return fmt.Errorf("scatter: rank %d slice corrupted", me)
		}

	case "gather":
		// Gather: the root reassembles every rank's chunk.
		var gaRecv []byte
		if me == root {
			gaRecv = make([]byte, n*chunk)
		}
		if err := c.Gather(fill('h', me, root, chunk), gaRecv, root); err != nil {
			return fmt.Errorf("gather: %w", err)
		}
		if me == root {
			for r := 0; r < n; r++ {
				if !bytes.Equal(gaRecv[r*chunk:(r+1)*chunk], fill('h', r, root, chunk)) {
					return fmt.Errorf("gather: chunk from %d corrupted", r)
				}
			}
		}

	case "alltoall":
		// Alltoall: rank k ends with the slice every sender addressed
		// to k.
		atSend := make([]byte, n*chunk)
		for d := 0; d < n; d++ {
			copy(atSend[d*chunk:], fill('a', me, d, chunk))
		}
		atRecv := make([]byte, n*chunk)
		if err := c.Alltoall(atSend, atRecv); err != nil {
			return fmt.Errorf("alltoall: %w", err)
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(atRecv[r*chunk:(r+1)*chunk], fill('a', r, me, chunk)) {
				return fmt.Errorf("alltoall: rank %d slice from %d corrupted", me, r)
			}
		}

	default:
		return fmt.Errorf("coretest: unknown op %q", op)
	}
	return nil
}

// Conformance runs the seven collectives on c with chunk bytes per rank
// rooted at root, checking this rank's outputs against the oracle. It
// is safe to call repeatedly on the same communicator.
func Conformance(c *mpi.Comm, chunk, root int) error {
	for _, op := range Ops {
		if err := CheckOp(c, op, chunk, root); err != nil {
			return err
		}
	}
	return nil
}

// Check runs the full conformance pass for every case and returns the
// accumulated loss counters for the caller to assert on (e.g. injected
// losses observed, or zero strict-mode drops).
func Check(t *testing.T, run Runner, algs mpi.Algorithms, cases []Case) Stats {
	t.Helper()
	var total Stats
	for _, cs := range cases {
		cs := cs
		st, err := run(cs.N, algs, func(c *mpi.Comm) error {
			return Conformance(c, cs.Chunk, cs.Root)
		})
		if err != nil {
			t.Errorf("n=%d chunk=%d root=%d: %v", cs.N, cs.Chunk, cs.Root, err)
		}
		total.add(st)
	}
	return total
}
