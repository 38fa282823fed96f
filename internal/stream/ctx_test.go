package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakCheck snapshots the goroutine count and returns a function that
// fails the test unless the count returns to the baseline — i.e. no
// worker, merge, closer, or fused-chain goroutine survived the run. The
// runtime gets a grace period to reap exiting goroutines.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
	}
}

// cancelRun starts RunContext on its own goroutine, cancels it after
// 20ms of running, and requires a prompt context.Canceled return.
func cancelRun(t *testing.T, g *Graph) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.RunContext(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunContext error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not terminate after cancellation")
	}
}

// TestRunContextCancelTerminates cancels a graph whose source would emit
// forever and requires RunContext to return promptly with the context
// error and without leaking any worker, merge, or closer goroutines.
// Run under -race this also shakes out unsynchronized shutdown paths.
func TestRunContextCancelTerminates(t *testing.T) {
	check := leakCheck(t)

	g := NewGraph()
	src := g.AddSource("infinite", func(emit EmitFunc) {
		for i := 0; ; i++ {
			emit(Event{Time: float64(i), Key: "k", Value: 1})
		}
	})
	op := g.AddMap("slow", 2, func(ev Event, emit EmitFunc) {
		time.Sleep(time.Microsecond)
		emit(ev)
	})
	if err := g.ConnectKeyed(src, op); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(op, g.AddSink("sink", nil)); err != nil {
		t.Fatal(err)
	}

	cancelRun(t, g)
	check()
}

// TestRunContextCancelMidFrame cancels a run while workers hold
// partially filled output frames: the batch size is far larger than the
// number of events in flight at any moment, so at cancellation time the
// operator's outbox buffers are mid-fill and frames are blocked on tiny
// full channels. The run must still return ctx.Err() promptly with no
// goroutine leaks — the flush-on-close path must not block on a dead
// downstream.
func TestRunContextCancelMidFrame(t *testing.T) {
	for _, tc := range []struct {
		name      string
		batch     int
		chanSize  int
		opDelay   time.Duration
		sinkDelay time.Duration
	}{
		// Large batch, tiny channels, slow operator: the source blocks on
		// a full partition channel while its other partition buffer is
		// half-filled, and the cancelled workers abandon those frames.
		{"partial-buffers", 1024, 4, 100 * time.Microsecond, 0},
		// Tiny batch and channels with a slow sink: senders block on full
		// partition channels while later events wait in half-full frames.
		{"blocked-sends", 4, 1, 0, 200 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := leakCheck(t)

			g := NewGraph()
			g.SetBatchSize(tc.batch)
			g.chanSize = tc.chanSize
			src := g.AddSource("infinite", func(emit EmitFunc) {
				for i := 0; ; i++ {
					emit(Event{Time: float64(i), Key: fmt.Sprintf("k%d", i%5), Value: 1})
				}
			})
			op := g.AddMap("slow", 2, func(ev Event, emit EmitFunc) {
				if tc.opDelay > 0 {
					time.Sleep(tc.opDelay)
				}
				emit(ev)
			})
			sink := g.AddSink("sink", func(Event) {
				if tc.sinkDelay > 0 {
					time.Sleep(tc.sinkDelay)
				}
			})
			if err := g.ConnectKeyed(src, op); err != nil {
				t.Fatal(err)
			}
			if err := g.Connect(op, sink); err != nil {
				t.Fatal(err)
			}

			cancelRun(t, g)
			check()
		})
	}
}

// TestRunContextCancelFusedChain cancels runs mid-frame across the
// planner's fusion modes (satellite of DESIGN.md §4j): a fully fused
// source→operator→sink chain — one goroutine, no transport anywhere, so
// only the root emit's amortized poll can observe the dead run — and
// the same topology unfused, where the workers are blocked in ring
// reserve/pop waits instead of channel operations. In every mode the
// run must return ctx.Err() promptly and leak no goroutine.
func TestRunContextCancelFusedChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		fuse bool
	}{
		{"fused", true},
		{"unfused-rings", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := leakCheck(t)

			g := NewGraph()
			g.SetFusion(tc.fuse)
			g.SetBatchSize(1024) // frames stay mid-fill at cancellation
			src := g.AddSource("infinite", func(emit EmitFunc) {
				for i := 0; ; i++ {
					emit(Event{Time: float64(i), Key: "k", Value: 1})
				}
			})
			op := g.AddMap("slow", 1, func(ev Event, emit EmitFunc) {
				time.Sleep(time.Microsecond)
				emit(ev)
			})
			if err := g.ConnectKeyed(src, op); err != nil {
				t.Fatal(err)
			}
			if err := g.Connect(op, g.AddSink("sink", nil)); err != nil {
				t.Fatal(err)
			}

			cancelRun(t, g)
			check()
		})
	}
}

// TestRunContextPreCancelled must not start work at all.
func TestRunContextPreCancelled(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 1000; i++ {
			emit(Event{Time: float64(i)})
		}
	})
	if err := g.Connect(src, g.AddSink("sink", nil)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled RunContext error = %v, want context.Canceled", err)
	}
}

// TestProcessorPanicAbortsRun converts a panicking operator into a
// run-wide error instead of crashing the process or deadlocking the
// graph: the failing check aborts the whole dataflow.
func TestProcessorPanicAbortsRun(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 10000; i++ {
			emit(Event{Time: float64(i), Key: "k"})
		}
	})
	op := g.AddMap("bomb", 2, func(ev Event, emit EmitFunc) {
		if ev.Time == 42 {
			panic("check failed hard")
		}
		emit(ev)
	})
	if err := g.ConnectKeyed(src, op); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(op, g.AddSink("sink", nil)); err != nil {
		t.Fatal(err)
	}
	_, err := g.RunContext(context.Background())
	if err == nil {
		t.Fatal("panicking processor did not fail the run")
	}
	if !strings.Contains(err.Error(), "bomb") || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error = %v, want node name and panic notice", err)
	}
}

// TestRunContextCleanBackground keeps the uncancelled path identical to
// Run: a background context must not alter results.
func TestRunContextCleanBackground(t *testing.T) {
	count := 0
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 500; i++ {
			emit(Event{Time: float64(i)})
		}
	})
	if err := g.Connect(src, g.AddSink("sink", func(Event) { count++ })); err != nil {
		t.Fatal(err)
	}
	m, err := g.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Errorf("sink saw %d events, want 500", count)
	}
	if m == nil {
		t.Error("nil metrics on clean run")
	}
}
