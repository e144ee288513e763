package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// sumScale is the fixed-point scale for histogram and gauge values:
// one micro-unit of the observed quantity. Integer micro-units keep
// accumulation commutative (float sums are order-dependent), which the
// jobs=1 vs jobs=N byte-identical-dump contract depends on.
const sumScale = 1e6

// toMicro converts a float sample to fixed-point micro-units.
func toMicro(v float64) int64 { return int64(math.Round(v * sumScale)) }

// fromMicro converts fixed-point micro-units back to a float.
func fromMicro(m int64) float64 { return float64(m) / sumScale }

// A Counter is a monotonically increasing uint64. All methods are
// atomic, lock-free, allocation-free, and safe on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a last-write-wins float64. Atomic and nil-safe; only
// deterministic when written from deterministic contexts (see the
// package comment).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// A Histogram counts samples into fixed buckets defined by ascending
// upper bounds; samples above the last bound land in an overflow
// bucket. The running sum is kept in fixed-point micro-units so that
// concurrent accumulation commutes. Observe is atomic, lock-free,
// allocation-free, and nil-safe.
type Histogram struct {
	bounds   []float64 // ascending upper bounds, immutable after creation
	counts   []atomic.Uint64
	overflow atomic.Uint64
	count    atomic.Uint64
	sumMicro atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sumMicro.Add(toMicro(v))
	// Hand-rolled search: sort.SearchFloat64s takes a closure and is
	// not guaranteed allocation-free on every toolchain. Buckets are
	// few (typically <32), so linear scan also wins on branch
	// prediction for skewed distributions.
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			return
		}
	}
	h.overflow.Add(1)
}

// Count returns the total number of samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples, rounded to micro-units (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return fromMicro(h.sumMicro.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts by linear interpolation within the target bucket,
// Prometheus-style: the first bucket interpolates from zero, and a
// quantile landing in the overflow bucket reports the last finite
// bound (the histogram cannot resolve beyond it). It returns 0 when
// the histogram is nil or empty. The estimate is exact at bucket
// boundaries and deterministic for equal bucket contents; it is a
// read-side aggregation, so concurrent Observes may shift it.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, ub := range h.bounds {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (ub-lo)*frac
		}
		cum += n
	}
	// Overflow bucket: unbounded above, report the last finite bound.
	return h.bounds[len(h.bounds)-1]
}

// BucketCount returns the number of samples in bucket i (counting the
// overflow bucket as i == the number of bounds the histogram was
// created with).
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil {
		return 0
	}
	if i == len(h.bounds) {
		return h.overflow.Load()
	}
	return h.counts[i].Load()
}

// A Registry is a named collection of metrics. Handle lookup/creation
// is mutex-guarded (call it at setup time, not per sample); the handles
// themselves are lock-free. The zero value is not usable — use
// NewRegistry. A nil *Registry hands out nil handles, which are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// validName enforces the package naming scheme: non-empty, characters
// from [a-z0-9._-] only.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

func checkName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want [a-z0-9._-]+)", name))
	}
}

// Counter returns the counter with the given name, creating it on
// first use. Nil registry → nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use. Nil registry → nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it
// with the given ascending bucket upper bounds on first use. Later
// calls for an existing name ignore bounds (the first creation wins);
// creating with no bounds or unsorted bounds panics. Nil registry →
// nil (no-op) handle.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %q created with no bounds", name))
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
		r.hists[name] = h
	}
	return h
}

// snapshot collects sorted name lists under the lock so the dump loops
// below iterate deterministically without holding it.
func (r *Registry) snapshot() (cn, gn, hn []string, cs map[string]*Counter, gs map[string]*Gauge, hs map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs = make(map[string]*Counter, len(r.counters))
	gs = make(map[string]*Gauge, len(r.gauges))
	hs = make(map[string]*Histogram, len(r.hists))
	for name, c := range r.counters {
		cn = append(cn, name)
		cs[name] = c
	}
	for name, g := range r.gauges {
		gn = append(gn, name)
		gs[name] = g
	}
	for name, h := range r.hists {
		hn = append(hn, name)
		hs[name] = h
	}
	sort.Strings(cn)
	sort.Strings(gn)
	sort.Strings(hn)
	return cn, gn, hn, cs, gs, hs
}

// WriteText renders every metric, sorted by kind then name, one per
// line. Histogram bucket counts are cumulative (`le(x)=n` means n
// samples ≤ x), Prometheus-style, with `inf` for the overflow bucket.
// Equal registry contents render byte-identically.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	cn, gn, hn, cs, gs, hs := r.snapshot()
	for _, name := range cn {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, cs[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range gn {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", name, gs[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range hn {
		h := hs[name]
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%g", name, h.Count(), h.Sum()); err != nil {
			return err
		}
		cum := uint64(0)
		for i, ub := range h.bounds {
			cum += h.BucketCount(i)
			if _, err := fmt.Fprintf(w, " le(%g)=%d", ub, cum); err != nil {
				return err
			}
		}
		cum += h.BucketCount(len(h.bounds))
		if _, err := fmt.Fprintf(w, " le(inf)=%d\n", cum); err != nil {
			return err
		}
	}
	return nil
}

// jsonBucket is one histogram bucket in the JSON dump (non-cumulative).
type jsonBucket struct {
	LE float64 `json:"le"`
	N  uint64  `json:"n"`
}

// jsonHistogram is the JSON shape of a histogram.
type jsonHistogram struct {
	Count    uint64       `json:"count"`
	Sum      float64      `json:"sum"`
	Buckets  []jsonBucket `json:"buckets"`
	Overflow uint64       `json:"overflow"`
}

// jsonDump is the top-level JSON metrics document.
type jsonDump struct {
	Schema     string                   `json:"schema"`
	Counters   map[string]uint64        `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]jsonHistogram `json:"histograms"`
}

// MetricsSchema identifies the JSON dump format version.
const MetricsSchema = "mobiwlan-metrics/1"

// WriteJSON renders the whole registry as one indented JSON document.
// encoding/json marshals maps with sorted keys, so equal contents
// render byte-identically.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	cn, gn, hn, cs, gs, hs := r.snapshot()
	d := jsonDump{
		Schema:     MetricsSchema,
		Counters:   make(map[string]uint64, len(cn)),
		Gauges:     make(map[string]float64, len(gn)),
		Histograms: make(map[string]jsonHistogram, len(hn)),
	}
	for _, name := range cn {
		d.Counters[name] = cs[name].Value()
	}
	for _, name := range gn {
		d.Gauges[name] = gs[name].Value()
	}
	for _, name := range hn {
		h := hs[name]
		jh := jsonHistogram{
			Count:    h.Count(),
			Sum:      h.Sum(),
			Buckets:  make([]jsonBucket, len(h.bounds)),
			Overflow: h.BucketCount(len(h.bounds)),
		}
		for i, ub := range h.bounds {
			jh.Buckets[i] = jsonBucket{LE: ub, N: h.BucketCount(i)}
		}
		d.Histograms[name] = jh
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&d)
}
