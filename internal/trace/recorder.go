package trace

import "sync"

// EventKind discriminates flight-recorder records.
type EventKind uint8

const (
	// SpanBegin opens a named span on a rank's track; spans nest.
	SpanBegin EventKind = iota
	// SpanEnd closes the innermost open span of the same name.
	SpanEnd
	// Instant marks a point event (a scout sent, a NACK, a repair).
	Instant
	// Gauge samples a named value over time (queue depth, delivered
	// bytes); rendered as a counter track.
	Gauge
)

// NoGate marks a span that waited on no particular peer.
const NoGate = -1

// Event is one flight-recorder record. TS is nanoseconds on the
// endpoint clock that recorded it: virtual time on the simulator,
// wall-clock on the UDP transport. Rank is the recording rank (gauges
// sampled from fabric hardware use the switch pseudo-rank FabricRank).
// Gate names the peer rank whose message ended a waiting span (NoGate
// otherwise) — the edge the critical-path extraction walks. Arg carries
// an event-specific value: payload bytes on sends, the sampled value on
// gauges, zero otherwise.
type Event struct {
	TS   int64
	Rank int32
	Gate int32
	Kind EventKind
	Name string
	Arg  int64
}

// FabricRank is the pseudo-rank gauge samples from fabric hardware (the
// switch's egress queues) are recorded under, keeping them off every
// real rank's track.
const FabricRank = -2

// Recorder is the per-run flight recorder: an append-only, timestamped
// event log shared by every rank of one network. A nil *Recorder is the
// disabled state — every method is a nil-receiver no-op that performs no
// allocation, so instrumented hot paths cost nothing when tracing is
// off (pinned by TestDisabledRecorderAllocs). Recording takes no device
// time and schedules no events: enabling tracing cannot move a single
// simulated timestamp.
//
// Recorder is safe for concurrent use; the wall-clock transports record
// from one goroutine per rank.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an enabled flight recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether events are being recorded (r non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) append(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Begin opens a span named name on rank's track at ts.
func (r *Recorder) Begin(rank int, ts int64, name string) {
	if r == nil {
		return
	}
	r.append(Event{TS: ts, Rank: int32(rank), Gate: NoGate, Kind: SpanBegin, Name: name})
}

// End closes rank's innermost open span named name at ts.
func (r *Recorder) End(rank int, ts int64, name string) {
	if r == nil {
		return
	}
	r.append(Event{TS: ts, Rank: int32(rank), Gate: NoGate, Kind: SpanEnd, Name: name})
}

// EndGated is End for a span that was waiting on peer rank gate (the
// message that unblocked it came from gate): the critical-path walk
// follows this edge onto gate's track.
func (r *Recorder) EndGated(rank int, ts int64, name string, gate int) {
	if r == nil {
		return
	}
	r.append(Event{TS: ts, Rank: int32(rank), Gate: int32(gate), Kind: SpanEnd, Name: name})
}

// Event records an instant named name with value arg on rank's track.
func (r *Recorder) Event(rank int, ts int64, name string, arg int64) {
	if r == nil {
		return
	}
	r.append(Event{TS: ts, Rank: int32(rank), Gate: NoGate, Kind: Instant, Name: name, Arg: arg})
}

// Gauge samples the named per-rank value at ts (rendered as a counter
// track: queue depth, delivered bytes, PAUSE state).
func (r *Recorder) Gauge(rank int, ts int64, name string, value int64) {
	if r == nil {
		return
	}
	r.append(Event{TS: ts, Rank: int32(rank), Gate: NoGate, Kind: Gauge, Name: name, Arg: value})
}

// Events returns a copy of the recorded log in append order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all recorded events, keeping the recorder enabled.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// Carrier is the optional capability by which an endpoint exposes its
// network's flight recorder; the MPI runtime discovers it by interface
// assertion exactly like transport.Wire. A nil recorder (or
// an endpoint without the capability) means tracing is disabled.
type Carrier interface {
	TraceRecorder() *Recorder
}
