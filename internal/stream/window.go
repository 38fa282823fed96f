package stream

import (
	"math"
	"sort"
)

// WindowAggregator is a Processor that groups events by key into tumbling
// event-time windows of the given size and emits one aggregated event per
// (key, window) when event time advances past the window end. It mirrors
// Flink's keyed tumbling event-time windows, the construct both
// evaluation pipelines of the paper are built from.
//
// Connect it with ConnectKeyed so each worker owns a disjoint key range.
type WindowAggregator struct {
	Size float64
	// Agg reduces the window's events to an output value. It receives
	// events in arrival order.
	Agg func(key string, windowStart float64, events []Event) (Event, bool)

	state map[string]*windowState
}

type windowState struct {
	start  float64
	events []Event
}

// NewWindowAggregator returns a window operator factory for AddOperator.
func NewWindowAggregator(size float64, agg func(key string, windowStart float64, events []Event) (Event, bool)) func() Processor {
	return func() Processor {
		return &WindowAggregator{Size: size, Agg: agg}
	}
}

// Process implements Processor.
func (w *WindowAggregator) Process(ev Event, emit EmitFunc) {
	if w.state == nil {
		w.state = map[string]*windowState{}
	}
	start := windowStart(ev.Time, w.Size)
	st := w.state[ev.Key]
	if st == nil {
		w.state[ev.Key] = &windowState{start: start, events: []Event{ev}}
		return
	}
	if start > st.start {
		// Event time advanced past the open window for this key: fire it.
		w.fire(ev.Key, st, emit)
		st.start = start
		st.events = st.events[:0]
	}
	st.events = append(st.events, ev)
}

// Flush implements Processor: fire all open windows in deterministic
// key order.
func (w *WindowAggregator) Flush(emit EmitFunc) {
	keys := make([]string, 0, len(w.state))
	for k := range w.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.fire(k, w.state[k], emit)
	}
}

func (w *WindowAggregator) fire(key string, st *windowState, emit EmitFunc) {
	if len(st.events) == 0 {
		return
	}
	if out, ok := w.Agg(key, st.start, st.events); ok {
		emit(out)
	}
}

func windowStart(t, size float64) float64 {
	if size <= 0 {
		return t
	}
	n := int64(t / size)
	return float64(n) * size
}

// MeanAggregator returns an Agg function that emits the mean value of the
// window, stamped at the window start, preserving the latest Created time
// for latency accounting and propagating the mean uncertainty.
func MeanAggregator() func(key string, windowStart float64, events []Event) (Event, bool) {
	return func(key string, start float64, events []Event) (Event, bool) {
		if len(events) == 0 {
			return Event{}, false
		}
		var sum, up, down float64
		out := Event{Time: start, Key: key}
		for _, e := range events {
			sum += e.Value
			up += e.SigUp
			down += e.SigDown
			out.Created = max(out.Created, e.Created)
		}
		n := float64(len(events))
		out.Value = sum / n
		// The mean of n values with mean per-point sigma σ̄ has standard
		// error σ̄/√n.
		out.SigUp = up / n / math.Sqrt(n)
		out.SigDown = down / n / math.Sqrt(n)
		return out, true
	}
}
