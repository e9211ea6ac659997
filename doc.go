// Package repro is a reproduction of "MPI Collective Operations over IP
// Multicast" (Chen, Carrasco, Apon — IPPS/SPDP 2000): an MPI subset whose
// collectives run over IP multicast with scout synchronization, the
// MPICH-style baselines it is compared against, a discrete-event Fast
// Ethernet testbed (hub and switch) that regenerates every figure of the
// paper's evaluation, and a real UDP/IP-multicast transport.
//
// The paper's idea is one sentence: IP multicast is receiver-directed and
// unreliable — "a receiver that is not ready loses the message" — so
// before the root multicasts once, every receiver proves with a small
// point-to-point scout that its receive is posted. Everything below
// either carries that idea (core), makes its assumptions true (reliab),
// gives it a network to run on (sim, ethernet, ipnet, simnet, udpnet), or
// measures it (bench, benchmark). The layers, bottom up; each is a
// package under internal/ and imports only packages listed before it
// (the one exception is udpnet.Run, the helper that starts an mpi world
// on sockets):
//
//   - sim: the discrete-event engine. A heap of timed events with an O(1)
//     FIFO fast path for same-instant ones (which therefore run in
//     scheduling order — the property every determinism pin rests on),
//     and Procs: rank programs as virtual-time processes, coroutines the
//     engine loop switches to and from directly (exactly one runs at a
//     time, no scheduler is involved) and unwinds when it gives a world
//     up, so a failed simulation leaves nothing behind.
//
//   - ethernet, ipnet: the modelled testbed. NICs with CSMA/CD, a
//     shared-medium hub, a store-and-forward switch with IGMP snooping,
//     802.3x PAUSE flow control as its one egress policy and a
//     shared-uplink port mode; over it a UDP/IP stack with class-D group
//     addressing.
//
//   - transport: what a device is. Every device is an Endpoint (Send,
//     Recv, RecvTimeout, Join, Leave, Multicast, Now); a device with a
//     real wire — simnet, udpnet — is also a Wire (the reliable stream,
//     fragment repair, pacing, posted receives, liveness probes). Beside
//     them the fragment wire codec and reassembler, and the in-process
//     channel transport, an Endpoint without a wire, used as a
//     race-detector target.
//
//   - trace, metrics, topo: the observers and the map. A per-rank flight
//     recorder with Perfetto export and critical-path extraction; an
//     online metrics registry (counters, gauges, rate meters, histograms)
//     scraped live by mpirun; and the placement of ranks on the fabric's
//     shared segments, with per-segment leaders. All three are nil-safe
//     and provably non-perturbing: an instrumented simulation produces
//     byte-identical timestamps.
//
//   - reliab: reliable point-to-point delivery under every scout, reduce
//     half, gather chunk, NACK and modeled-TCP baseline message, so that
//     any frame may be lost and a collective still completes. Pure state
//     machines for the two halves of a per-peer stream (sliding window,
//     receiver silent on the happy path so the lossless wire matches the
//     paper's frame-count formulas exactly, sender probes at once when
//     its window is full and otherwise after a silence as long as the
//     round trip it measured calls for, selective retransmission,
//     Karn-clean RTT estimation), the
//     control wire format, and the Driver that runs all of one endpoint's
//     streams: it decides when to probe, what counts as activity, when
//     to acknowledge, and hands its transport Steps — frames to write, a
//     timer to arm, whom to wake. It is also the endpoint's one receive
//     path: every data fragment that survived the transport's loss
//     injection goes to Driver.Receive, which suppresses duplicates,
//     reassembles (the driver owns the reassembler), delivers and names
//     the acks to send around the hand-up. Retransmissions, its own and
//     core's multicast repairs, carry a flag bit; an endpoint that hears
//     one, or is asked for one, has evidence that the network loses
//     frames and for a bounded number of messages sends a probe right
//     behind each, so a lost scout is resent a round trip later instead
//     of a timeout later; without evidence it sends what it always did.
//     The driver reads no clock and writes no frame, which is what lets
//     one seeded model test drive it through arbitrary loss, duplication
//     and reordering.
//
//   - simnet, udpnet: the two network transports, each a thin host for a
//     reliab.Driver: they inject loss, filter, count and carry frames,
//     and write the stream plumbing nowhere. simnet binds
//     transport.Endpoint to the simulated testbed: calibrated host costs
//     charged in virtual time, strict
//     posted-receive multicast loss, seeded and surgical loss injection,
//     kill/straggle/partition faults, backpressure from a PAUSEd NIC into
//     stream admission. udpnet is real sockets: one unicast socket per
//     rank, one multicast socket per joined group, a mutex where simnet
//     has the engine's single thread, wall-clock timers. Its multicast
//     goes where it was addressed: senders are pinned to, and groups
//     joined on, the one interface a probe datagram made the round trip
//     on (loopback wherever it is up, so nothing crosses a NIC), and on
//     Linux a group socket hears only its own group, so a foreign slice
//     dies in the kernel as it dies at the simulated NIC's filter.
//
//   - mpi: communicators, tagged point-to-point with MPI matching
//     semantics, nonblocking requests, datatypes and reduction ops, the
//     low-bit-first binomial tree every walk runs (Binomial), and the
//     collective dispatchers, each of which runs the one function its
//     communicator's algorithm set names (a nil field is
//     ErrNoAlgorithm; there is no built-in fallback). A Runtime
//     asserts once whether its device has a wire; CollCtx is the
//     narrow waist collective implementations are written against:
//     phase-tagged point-to-point sends and receives, and four multicast
//     calls over a Scope — the whole communicator, one rank's slice
//     group or one fabric segment's group, a value resolved to a device
//     group and a tag in one place. The failure detector turns every blocking collective receive into a
//     bounded wait (ping sweeps, a typed RankFailedError naming the dead
//     set) and Comm.Shrink rebuilds a survivor communicator without a
//     coordination round.
//
//   - baseline: the MPICH algorithms — every collective built from
//     point-to-point messages, binomial-tree broadcast and three-phase
//     barrier as the paper describes them — over modeled TCP.
//
//   - core: the paper's contribution and its extensions. Scout-gated
//     multicast broadcast and barrier with linear and binomial scout
//     gathers; a round engine that composes the primitive into allgather,
//     allreduce (binomial-reduce and chunked reduce-scatter forms),
//     scatter, gather and alltoall at fragment granularity. A round is a
//     sender, a list of (scope, payload) sends and the scope each rank
//     listens on; reliability (scout-only, or NACK repair with selective
//     fragment repair, asked for when the arrivals the reassembler
//     stamped say a message has stopped coming) and scope (whole,
//     per-slice, per-segment, so a NIC delivers only what its rank
//     consumes) vary independently, and one transmit half, one receive
//     half and one release-gated chunk collection serve every
//     combination. The lossless allgather and alltoall run no round
//     sequence: one handshake, then a burst in which every rank
//     multicasts its data — at once on a switch, in slot order on one
//     collision domain. The sets — Algorithms(mode), ResilientAlgorithms(),
//     and the two-level (segment-leader) pair for shared-uplink fabrics,
//     TwoLevelAlgorithms() and TwoLevelResilientAlgorithms(), which run
//     their flat set where there is no topology — are those options
//     chosen; the repair they run takes no options. Beside them, the
//     comparison protocols (ack-based, sequencer, deliberately unsafe).
//     Every set comes complete: the collectives core has no multicast
//     version of run package baseline's.
//     core/coretest holds the conformance harness that checks all seven
//     collectives against a pure oracle, under graded loss and under the
//     kill/straggle/partition chaos matrix.
//
//   - workload, cluster, bench: measurement. workload binds a collective
//     to per-rank buffers; cluster wires an MPI world onto the simulator;
//     bench names the algorithm sets, runs a Scenario with the paper's
//     methodology (warm-ups, a separating barrier, per-rank entry skew,
//     longest rank, median of seeded repetitions), defines every figure
//     (Defs in bench/figures.go) and writes the N-sweep perf trajectory
//     BENCH_sim.json — simulated µs, event and scout-frame counts, all
//     deterministic, so regenerating it is an equality check.
//
// The commands: cmd/mcastbench regenerates figures, tables, traces and
// the trajectory on the simulator; cmd/mpirun runs a real MPI world over
// kernel UDP multicast, with -metrics serving live telemetry;
// cmd/netsim drives the bare network model; cmd/promcheck validates a
// Prometheus exposition. examples/ holds small MPI programs. benchmark/
// (package main, see benchmark/README.md) is the repo's benchmark: five
// workloads on both transports, four end-to-end metrics with regression
// bounds, and a per-layer ledger whose rows are named after the layers
// above.
//
// EXPERIMENTS.md reports paper-versus-measured results for every figure;
// ROADMAP.md states where the design is going; CHANGES.md is the log of
// how it got here. The top-level smoke_test.go runs every protocol and
// collective through the harness under plain `go test`.
package repro
