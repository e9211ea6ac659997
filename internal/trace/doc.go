// Package trace provides protocol-level observability: wire accounting
// (how many frames and bytes of each message class a run put on the
// network) and a per-rank flight recorder of timestamped protocol events
// (Recorder) with Chrome-trace export and critical-path analysis. The
// counters verify the frame-count formulas from the paper's §3 analysis,
// e.g. that an MPICH-style broadcast of M bytes to N processes costs
// ceil(M/T)·(N-1) data frames while the multicast implementation costs
// N-1 scout frames plus ceil(M/T) data frames; the recorder shows *when*
// each phase of a collective ran and which rank bounded completion.
//
// # Event model
//
// A Recorder captures a flat log of Events, each stamped with a rank
// (the track), a timestamp in transport nanoseconds — virtual time on
// the simulator, wall-clock on the UDP transport; recording reads the
// clock but never advances it, so an attached recorder cannot move a
// single simulated timestamp — and one of four kinds:
//
//   - SpanBegin/SpanEnd: a named phase interval on one rank's track.
//     The round engine names a one-round collective (bcast, barrier,
//     scatter, a burst's handshake) with the paper's phases —
//     "scout-gather", then "data-mcast", or "release" for a control
//     round — and a longer sequence (under NACK repair)
//     "round-gather" and "round-data". Beside
//     them: "chunk-mcast", "chunk-consume" (a burst's data exchange),
//     "slice-combine", "reduce-scatter". Spans nest (a "bcast" op span
//     contains its phase spans). A SpanEnd may carry a gate: the rank
//     whose message unblocked the wait, recorded by
//     CollCtx.SpanEndGated.
//   - Instant: a point event — "send.scout", "send.ack", "send.release"
//     (Arg: payload bytes), "send.nack" (a receiver asked for a repair;
//     Arg: the nanoseconds of silence it waited out first — since the
//     message's latest fragment, or since it began waiting when nothing
//     arrived), "repair.mcast" (Arg: fragments resent), "stream.stall" (a
//     send blocked on the window; Arg: peer), "stream.credit" (an ack
//     made room in a full window; Arg: peer), "stream.probe" (Arg: peer),
//     "stream.retransmit" (Arg: fragments), "stream.lossy" (an endpoint
//     with no credit saw evidence that the network loses frames and
//     starts confirming its sends), "stream.quiet" (it spent the credit
//     that evidence bought without seeing more; Arg: the last confirmed
//     peer), "switch.drop" (Arg: egress port).
//   - Gauge: a sampled value — "switch.portN.depth" (egress queue
//     occupancy), "switch.paused" (stations under backpressure), and
//     "delivered.bytes" (per-rank payload handed up). Fabric-level
//     gauges use the synthetic FabricRank track.
//
// A nil *Recorder is the disabled state: every method is a no-op nil
// check that allocates nothing (pinned by TestDisabledRecorderAllocs).
// Transports expose an attached recorder through the Carrier interface,
// which internal/mpi discovers by interface assertion at runtime
// construction — the same pattern as the device's transport.Wire and
// the topology provider.
//
// # Export and analysis
//
// WriteChromeTrace renders one or more recorded runs in the Chrome
// trace-event JSON format: one process per run, one thread track per
// rank. Load the file at https://ui.perfetto.dev (or chrome://tracing)
// to see nested phase spans per rank, instants, and counter tracks.
// ValidateChromeTrace checks an export without a browser: well-formed
// JSON, at least one span, per-track monotonic timestamps, balanced
// begin/end nesting — the CI smoke gate.
//
// Summarize reduces a recorded run to a Summary: per-phase latency
// histograms (count/min/median/max/total µs) and the critical path —
// starting from the span whose end bounds completion, walk backwards on
// the same rank's track, jumping to the gating rank's track wherever a
// span end was gated. Summary.Format prints the human report
// (mcastbench -trace prints one per demo run, see
// internal/bench.TraceDemo).
package trace
