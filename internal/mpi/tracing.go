package mpi

import (
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Flight-recorder and telemetry hooks for the collective layers. Every
// helper is a no-op when the device carries neither a recorder nor a
// metrics registry: one nil check, no clock read, no allocation — the
// disabled path is pinned to zero allocs by the trace and metrics
// packages' tests, so instrumentation can sit on hot paths.

// opMetrics holds the telemetry handles for one collective operation on
// one communicator: the mcast_coll_ops{op,alg} invocation counter and
// the mcast_coll_latency_us{op,alg} completion-latency histogram.
type opMetrics struct {
	ops *metrics.Counter
	lat *metrics.Histogram
}

// opMetricsFor returns the cached telemetry handles for op name,
// creating and registering them on first use. Nil when telemetry is
// disabled.
func (c *Comm) opMetricsFor(name string) *opMetrics {
	if c.rt.mreg == nil {
		return nil
	}
	if om, ok := c.opm[name]; ok {
		return om
	}
	alg := c.algs.Name
	if alg == "" {
		alg = "default"
	}
	om := &opMetrics{
		ops: c.rt.mreg.Counter(metrics.Labeled("mcast_coll_ops", "op", name, "alg", alg)),
		lat: c.rt.mreg.Histogram(metrics.Labeled("mcast_coll_latency_us", "op", name, "alg", alg)),
	}
	if c.opm == nil {
		c.opm = make(map[string]*opMetrics)
	}
	c.opm[name] = om
	return om
}

// opSpan carries what a collective dispatcher opened: the recorder span
// (when tracing), the op's metrics handles (when telemetry is on), and
// the operation's start time. The zero value means both are disabled.
type opSpan struct {
	om *opMetrics
	t0 int64
	on bool // a recorder or registry was present at beginOp
}

// beginOp opens the operation-level span the public collective
// dispatchers record and returns the handle for the matching endOp.
// Usage:
//
//	defer c.endOp(c.beginOp("bcast"), "bcast")
//
// The deferred endOp stamps the close at return time and observes the
// op's completion latency; beginOp's clock read happens only when a
// recorder or a metrics registry is present.
func (c *Comm) beginOp(name string) opSpan {
	sp := opSpan{om: c.opMetricsFor(name)}
	if c.rt.rec == nil && sp.om == nil {
		return sp
	}
	sp.on = true
	sp.t0 = c.rt.ep.Now()
	if c.rt.rec != nil {
		c.rt.rec.Begin(c.rank, sp.t0, name)
	}
	return sp
}

func (c *Comm) endOp(sp opSpan, name string) {
	if !sp.on {
		return
	}
	now := c.rt.ep.Now()
	if c.rt.rec != nil {
		c.rt.rec.End(c.rank, now, name)
	}
	if sp.om != nil {
		sp.om.ops.Inc()
		sp.om.lat.Observe((now - sp.t0) / 1_000)
	}
}

// SpanBegin opens a phase span on this rank's trace track. Algorithm
// implementations bracket their protocol phases (scout gather, data
// rounds, leader exchange) with SpanBegin/SpanEnd so the exported trace
// nests phases under the operation span.
func (cc CollCtx) SpanBegin(name string) {
	if r := cc.c.rt.rec; r != nil {
		r.Begin(cc.c.rank, cc.c.rt.ep.Now(), name)
	}
}

// SpanEnd closes the innermost open phase span of the same name.
func (cc CollCtx) SpanEnd(name string) {
	if r := cc.c.rt.rec; r != nil {
		r.End(cc.c.rank, cc.c.rt.ep.Now(), name)
	}
}

// SpanEndGated is SpanEnd for a phase that blocked until a message from
// communicator rank gate arrived: the recorded edge is what lets the
// critical-path extraction jump from the waiting rank onto the track of
// the rank it waited for.
func (cc CollCtx) SpanEndGated(name string, gate int) {
	if r := cc.c.rt.rec; r != nil {
		r.EndGated(cc.c.rank, cc.c.rt.ep.Now(), name, gate)
	}
}

// TraceEvent records an instant protocol event (a NACK decision, a
// repair served) on this rank's track.
func (cc CollCtx) TraceEvent(name string, arg int64) {
	if r := cc.c.rt.rec; r != nil {
		r.Event(cc.c.rank, cc.c.rt.ep.Now(), name, arg)
	}
}

// sendEventName maps a protocol message class to the instant-event name
// recorded when CollCtx sends it. Indexed by class so the lookup costs
// nothing; data sends are spanned by their phases instead of flooding
// the log with one instant per chunk, and a repair request is recorded by
// the receiver that decided on it ("send.nack", with the silence it
// waited out as argument — what this layer cannot know).
var sendEventName = [...]string{
	transport.ClassScout:   "send.scout",
	transport.ClassAck:     "send.ack",
	transport.ClassControl: "send.release",
}

// traceSend records the protocol-salient sends (scout, ack, release) as
// instants with the payload size as argument.
func (cc CollCtx) traceSend(class transport.Class, bytes int) {
	r := cc.c.rt.rec
	if r == nil {
		return
	}
	if int(class) >= len(sendEventName) || sendEventName[class] == "" {
		return
	}
	r.Event(cc.c.rank, cc.c.rt.ep.Now(), sendEventName[class], int64(bytes))
}
