package stream

import (
	"sort"
	"sync"
	"time"
)

// Metrics aggregates sink-side measurements of a graph run: event counts,
// wall-clock duration, per-bucket throughput over time, and event
// latencies (wall-clock delay from source emission to sink ingestion),
// matching the evaluation metrics of paper §VI-A.
type Metrics struct {
	mu       sync.Mutex
	began    time.Time
	ended    time.Time
	counts   map[string]int64
	buckets  map[string]map[int64]int64 // sink -> bucket index -> count
	latency  map[string]*latencySamples
	bucketNS int64
}

func newMetrics() *Metrics {
	return &Metrics{
		counts:   map[string]int64{},
		buckets:  map[string]map[int64]int64{},
		latency:  map[string]*latencySamples{},
		bucketNS: int64(100 * time.Millisecond),
	}
}

// latencyStride is the initial sampling cadence — every 16th event that
// reaches a sink — and maxLatencySamples the most one sink keeps
// (512 KiB of float64).
const (
	latencyStride     = 16
	maxLatencySamples = 1 << 16
)

// latencySamples is one sink's latency store: every stride-th event's
// delay in seconds, evenly strided over the whole run however long it is.
// A sink under a long-lived server would otherwise grow by a sample per
// 16 events forever; when the store fills it keeps every other sample in
// place and doubles the stride instead, so what remains is exactly what a
// run sampled at the doubled stride from the start would hold.
type latencySamples struct {
	vals   []float64
	seen   int64 // events that reached the sink
	stride int64
}

// add stores one sample, growing the store by doubling up to the bound (so
// its capacity never exceeds it) and thinning it when it fills.
func (l *latencySamples) add(v float64) {
	if len(l.vals) == cap(l.vals) {
		l.vals = append(make([]float64, 0, min(max(2*cap(l.vals), 64), maxLatencySamples)), l.vals...)
	}
	l.vals = append(l.vals, v)
	if len(l.vals) < maxLatencySamples {
		return
	}
	// Sample i was taken at event (i+1)·stride: the odd indices are the
	// multiples of the doubled stride.
	for i := 0; i < maxLatencySamples/2; i++ {
		l.vals[i] = l.vals[2*i+1]
	}
	l.vals = l.vals[:maxLatencySamples/2]
	l.stride *= 2
}

func (m *Metrics) start() { m.began = time.Now() }
func (m *Metrics) stop()  { m.ended = time.Now() }

// recordFrame folds a whole transport frame into the sink's metrics
// under a single lock acquisition and a single clock read: counts and
// throughput buckets advance by the frame length at once, and latency
// sampling walks the frame with the same every-stride-th cadence the
// per-event path used. This is the sink-side half of the micro-batched
// transport: the measurement cost is per frame, not per event.
func (m *Metrics) recordFrame(sink string, evs []Event) {
	if len(evs) == 0 {
		return
	}
	now := time.Now()
	m.mu.Lock()
	m.counts[sink] += int64(len(evs))
	b := m.buckets[sink]
	if b == nil {
		b = map[int64]int64{}
		m.buckets[sink] = b
	}
	// The frame arrived at one instant; all its events land in one bucket.
	b[now.Sub(m.began).Nanoseconds()/m.bucketNS] += int64(len(evs))
	l := m.latency[sink]
	if l == nil {
		l = &latencySamples{stride: latencyStride}
		m.latency[sink] = l
	}
	for i := range evs {
		l.seen++
		if !evs[i].Created.IsZero() && l.seen%l.stride == 0 {
			l.add(now.Sub(evs[i].Created).Seconds())
		}
	}
	m.mu.Unlock()
}

// Duration returns the wall-clock run time.
func (m *Metrics) Duration() time.Duration { return m.ended.Sub(m.began) }

// Count returns the number of events that reached the named sink.
func (m *Metrics) Count(sink string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[sink]
}

// TotalCount returns the events across all sinks.
func (m *Metrics) TotalCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, c := range m.counts {
		total += c
	}
	return total
}

// Throughput returns events per second at the named sink over the whole
// run (zero duration yields 0).
func (m *Metrics) Throughput(sink string) float64 {
	d := m.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(m.Count(sink)) / d
}

// ThroughputSeries returns (bucket time offset seconds, events/sec) pairs
// for the named sink, with the first warmup fraction of buckets trimmed
// (the paper trims a warm-up period of 15% of the experiment duration).
type ThroughputPoint struct {
	Offset    float64 // seconds since run start
	PerSecond float64
}

// ThroughputOverTime returns the bucketized throughput series.
func (m *Metrics) ThroughputOverTime(sink string, warmupFrac float64) []ThroughputPoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.buckets[sink]
	if len(b) == 0 {
		return nil
	}
	idxs := make([]int64, 0, len(b))
	for i := range b {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	maxIdx := idxs[len(idxs)-1]
	cut := int64(float64(maxIdx) * warmupFrac)
	bucketSec := float64(m.bucketNS) / 1e9
	var out []ThroughputPoint
	for _, i := range idxs {
		if i < cut {
			continue
		}
		out = append(out, ThroughputPoint{
			Offset:    float64(i) * bucketSec,
			PerSecond: float64(b[i]) / bucketSec,
		})
	}
	return out
}

// Latencies returns the sampled latencies (seconds) at the named sink,
// with the first warmupFrac fraction of samples trimmed.
func (m *Metrics) Latencies(sink string, warmupFrac float64) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ls []float64
	if l := m.latency[sink]; l != nil {
		ls = l.vals
	}
	cut := int(float64(len(ls)) * warmupFrac)
	out := make([]float64, len(ls)-cut)
	copy(out, ls[cut:])
	return out
}

// MeanLatency returns the mean sampled latency in seconds after warm-up
// trimming, or 0 when nothing was sampled.
func (m *Metrics) MeanLatency(sink string, warmupFrac float64) float64 {
	ls := m.Latencies(sink, warmupFrac)
	if len(ls) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range ls {
		sum += l
	}
	return sum / float64(len(ls))
}

// EdgeDepth is the queue-occupancy summary an edge gauge once reported
// (sample count, mean and maximum depth in frames). Nothing measures it
// any more: it survives only as the element type of ingest.Stats.Edges,
// a /stats field the standing benchmark reads and finds empty.
type EdgeDepth struct {
	Samples int64
	Mean    float64
	Max     int64
}

// Sinks returns the names of sinks that received events, sorted.
func (m *Metrics) Sinks() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.counts))
	for s := range m.counts {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
