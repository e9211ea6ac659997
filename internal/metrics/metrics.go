package metrics

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is an online metrics registry. Instruments are get-or-create
// by full labeled name; handles are stable for the registry's lifetime,
// so hot paths hold the handle and never touch the registry maps. A nil
// *Registry is the disabled state: constructors return nil handles and
// every instrument method on a nil handle is an allocation-free no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	meters   map[string]*Meter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		meters:   make(map[string]*Meter),
		hists:    make(map[string]*Histogram),
	}
}

// Carrier is the optional capability by which a transport exposes an
// attached registry; internal/mpi discovers it by interface assertion
// at runtime construction, like trace.Carrier and topo.Provider.
type Carrier interface {
	MetricsRegistry() *Registry
}

// Labeled builds a full labeled metric name, name{k1="v1",k2="v2"}.
// Call it at instrument creation, never in a hot path.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Meter returns the rate meter registered under name, creating it with
// time constant tauNS on first use. Returns nil on a nil registry.
func (r *Registry) Meter(name string, tauNS int64) *Meter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.meters[name]
	if m == nil {
		m = &Meter{tau: float64(tauNS)}
		r.meters[name] = m
	}
	return m
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotone atomic event count.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one to the counter. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge holds the latest sampled float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set records the latest value. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the latest value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Meter is an exponentially-decayed event counter: Mark(now, n) decays
// the accumulator by exp(-dt/tau) and adds n, so Rate() estimates the
// recent arrival rate with time constant tau. Timestamps are explicit
// (virtual nanoseconds on the simulator, wall nanoseconds on UDP) and
// the rate is evaluated as of the last mark, so a reader in a different
// clock domain never decays the meter against its own clock.
type Meter struct {
	mu    sync.Mutex
	tau   float64 // decay time constant, ns
	v     float64 // decayed accumulator
	last  int64   // timestamp of the last mark
	total int64   // undecayed event total
	ever  bool
}

// Mark records n events at timestamp now (transport nanoseconds).
// No-op on a nil meter. Out-of-order timestamps add without decaying.
func (m *Meter) Mark(now, n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.ever && now > m.last {
		m.v *= math.Exp(-float64(now-m.last) / m.tau)
	}
	if now > m.last || !m.ever {
		m.last = now
	}
	m.ever = true
	m.v += float64(n)
	m.total += n
	m.mu.Unlock()
}

// Rate returns the estimated events per second as of the last mark; 0
// on a nil meter.
func (m *Meter) Rate() float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v / m.tau * 1e9
}

// Total returns the undecayed event total; 0 on a nil meter.
func (m *Meter) Total() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// histBuckets is the fixed bucket count: bucket b counts observations
// whose value has bit length b, i.e. v in [2^(b-1), 2^b-1]; bucket 0
// counts zeros (and negative observations, clamped).
const histBuckets = 64

// Histogram is a log-bucketed streaming histogram with power-of-two
// bucket boundaries — constant size, no per-observation allocation.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	orig := v
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(orig)
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; 0 on a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// MeterSnapshot is the exported state of one Meter.
type MeterSnapshot struct {
	Total int64   `json:"total"`
	Rate  float64 `json:"rate_per_sec"`
}

// HistBucket is one cumulative histogram bucket: Count observations
// were at most Le.
type HistBucket struct {
	Le    int64 `json:"le"` // inclusive upper bound; -1 means +Inf
	Count int64 `json:"count"`
}

// HistogramSnapshot is the exported state of one Histogram. Buckets are
// cumulative, ascending, trailing empty buckets trimmed.
type HistogramSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// keyed by full labeled name. It marshals to JSON for the interval
// JSONL capture, the /metrics.json endpoint, and the gate-exempt
// metrics section of BENCH_sim.json.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Meters     map[string]MeterSnapshot     `json:"meters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// bucketBound returns the inclusive upper bound of histogram bucket b.
func bucketBound(b int) int64 {
	if b == 0 {
		return 0
	}
	if b >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<b - 1
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	last := -1
	for b := 0; b <= histBuckets; b++ {
		if h.buckets[b].Load() > 0 {
			last = b
		}
	}
	cum := int64(0)
	for b := 0; b <= last; b++ {
		cum += h.buckets[b].Load()
		s.Buckets = append(s.Buckets, HistBucket{Le: bucketBound(b), Count: cum})
	}
	return s
}

// Snapshot copies the current value of every instrument. Returns a zero
// Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]struct {
		name string
		c    *Counter
	}, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, struct {
			name string
			c    *Counter
		}{name, c})
	}
	gauges := make([]struct {
		name string
		g    *Gauge
	}, 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, struct {
			name string
			g    *Gauge
		}{name, g})
	}
	meters := make([]struct {
		name string
		m    *Meter
	}, 0, len(r.meters))
	for name, m := range r.meters {
		meters = append(meters, struct {
			name string
			m    *Meter
		}{name, m})
	}
	hists := make([]struct {
		name string
		h    *Histogram
	}, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, struct {
			name string
			h    *Histogram
		}{name, h})
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for _, e := range counters {
			s.Counters[e.name] = e.c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for _, e := range gauges {
			s.Gauges[e.name] = e.g.Value()
		}
	}
	if len(meters) > 0 {
		s.Meters = make(map[string]MeterSnapshot, len(meters))
		for _, e := range meters {
			s.Meters[e.name] = MeterSnapshot{Total: e.m.Total(), Rate: e.m.Rate()}
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for _, e := range hists {
			s.Histograms[e.name] = e.h.snapshot()
		}
	}
	return s
}

// sortedKeys returns the keys of m in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
