// Package metrics is the live telemetry plane: an online registry of
// atomic counters, gauges, EWMA rate meters, and log-bucketed streaming
// histograms that the transports, reliable streams, and collectives
// update continuously while a run is in flight. Where internal/trace
// answers "what happened" after a run, metrics answers "what is
// happening now" — the observables a congestion controller or an
// algorithm auto-tuner reads live (ROADMAP: continuous congestion
// control + measurement-driven selection).
//
// # Instruments
//
//   - Counter: a monotone atomic int64 (events, drops, stalls).
//   - Gauge: a float64 set to the latest sampled value (smoothed RTT,
//     window occupancy, switch queue depth).
//   - Meter: an exponentially-decayed event counter with time constant
//     tau; Mark(now, n) decays the accumulator by exp(-dt/tau) and adds
//     n, so Rate() is a continuous events-per-second estimate. Marks
//     carry explicit timestamps because the simulator runs in virtual
//     nanoseconds and the UDP transport in wall-clock nanoseconds; the
//     rate is evaluated as of the last mark, never against a "current"
//     clock, so the two time domains never mix at export.
//   - Histogram: 64 power-of-two buckets (bucket b counts values whose
//     bit length is b, i.e. [2^(b-1), 2^b-1]; bucket 0 counts zeros)
//     plus an exact count and sum — streaming percentiles for
//     completion latencies without per-sample allocation.
//
// # Naming and labels
//
// Metric names follow the Prometheus convention
// family{label="value",...}: the full labeled name is the registry key,
// built once at instrument creation with Labeled (never in a hot path).
// Families in use:
//
//	mcast_stream_srtt_us{rank,peer}          smoothed probe RTT, µs
//	mcast_stream_rttvar_us{rank,peer}        Jacobson RTT variance, µs
//	mcast_stream_min_rtt_us{rank,peer}       observed RTT floor, µs
//	mcast_stream_rtt_gradient_us{rank,peer}  Vegas-style smoothed per-sample
//	                                         srtt delta: rising ⇒ queues building
//	mcast_stream_window{rank,peer}           unacked messages in flight
//	mcast_stream_retransmits{rank}           meter: retransmitted fragments
//	mcast_stream_confirm_credit{rank}        gauge: messages the endpoint will
//	                                         still send confirmed (0: it sees
//	                                         no evidence of loss)
//	mcast_nic_delivered_bytes{rank}          meter: payload bytes handed up
//	mcast_nic_delivered_frames{rank}         meter: frames handed up
//	mcast_nic_pause_stalls{rank}             counter: sends stalled on PAUSE
//	mcast_switch_queue_depth{port}           gauge: egress queue occupancy
//	mcast_switch_paused_stations             gauge: stations under backpressure
//	mcast_coll_ops{op,alg}                   counter: collective invocations
//	mcast_coll_latency_us{op,alg}            histogram: completion latency, µs
//
// Meters export two series: family_total (counter) and family_rate
// (per-second gauge). Histograms export the usual _bucket/_sum/_count
// triplet with cumulative le labels.
//
// # Disabled state and determinism
//
// A nil *Registry is the disabled state: instrument constructors return
// nil handles, and every method on a nil handle is a no-op nil check
// that allocates nothing (pinned by TestDisabledMetricsAllocs) — the
// same discipline as trace.Recorder. Transports expose an attached
// registry through the Carrier interface, discovered by interface
// assertion like trace.Carrier and the topology provider. Instrumentation
// reads the transport clock but never advances it and never schedules
// events, so attaching a registry cannot move a single simulated
// timestamp (pinned by TestMetricsDoNotPerturbSimTime across the full
// sweep grid).
//
// # Export surfaces
//
// WriteProm renders the Prometheus text exposition format (served by
// Handler at /metrics, next to a JSON snapshot at /metrics.json and a
// failure-detector-backed /healthz); Snapshot returns the same state as
// a JSON-marshalable struct for interval JSONL capture and for the
// per-layer rows of the repository benchmark; ValidateExposition
// checks an exposition without promtool — the CI smoke gate.
package metrics
