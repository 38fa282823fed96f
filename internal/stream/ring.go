package stream

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spscRing is a bounded single-producer/single-consumer queue of frame
// slots used on fusion-planned edges instead of a Go channel (DESIGN.md
// §4j). Capacity is a power of two; head and tail are monotonically
// increasing positions masked into the slot array. The producer owns
// tail and fills the slot *in place* — the outbox appends events
// directly into the reserved slot buffer, so a hot edge moves data with
// zero channel operations and zero sync.Pool traffic: the slot buffers
// are allocated once per slot and recycled by position. The consumer
// owns head and releases a slot only after the frame is fully
// processed, which is what makes in-place reuse safe.
//
// Memory model: publish stores tail with release semantics after the
// slot contents are written; pop loads tail with acquire semantics
// before reading the slot, so the consumer always observes a fully
// written frame (Go's sync/atomic guarantees sequentially consistent
// ordering, which subsumes the acquire/release pairing needed here).
// The closed flag is set by the run's closer goroutine after the
// producer released its sender slot, so close happens after the final
// publish.
type spscRing struct {
	slots []frame
	mask  uint64
	pool  *framePool // lazy slot allocation + post-run harvest

	// Producer-owned (single goroutine): shadow tail and a cached copy
	// of head so the fast path performs no atomic loads.
	pTail      uint64
	cachedHead uint64
	pWait      ringWait

	// Consumer-owned: shadow head and cached tail.
	cHead      uint64
	cachedTail uint64
	cWait      ringWait

	// Shared positions. padded to keep producer and consumer lines apart.
	_    [8]uint64
	head paddedCounter
	tail paddedCounter
	clsd paddedCounter
}

// paddedCounter is an atomic uint64 on its own cache line.
type paddedCounter struct {
	v atomic.Uint64
	_ [7]uint64
}

// newSPSCRing rounds capacity up to a power of two. Slot buffers come
// from the graph's frame pool, so consecutive runs of one graph reuse
// the previous run's buffers instead of re-allocating them.
func newSPSCRing(capacity int, pool *framePool) *spscRing {
	if capacity < 1 {
		capacity = 1
	}
	c := uint64(1)
	for c < uint64(capacity) {
		c <<= 1
	}
	return &spscRing{slots: make([]frame, c), mask: c - 1, pool: pool}
}

// reserve returns the next slot for the producer to fill, blocking
// while the ring is full. It panics with runAborted when the run is
// cancelled mid-wait.
func (r *spscRing) reserve(done <-chan struct{}) *frame {
	if r.pTail-r.cachedHead >= uint64(len(r.slots)) {
		r.cachedHead = r.head.v.Load()
		for r.pTail-r.cachedHead >= uint64(len(r.slots)) {
			r.pWait.pause(done)
			r.cachedHead = r.head.v.Load()
		}
		r.pWait.reset()
	}
	s := &r.slots[r.pTail&r.mask]
	if *s == nil {
		*s = r.pool.get()
	} else {
		*s = (*s)[:0]
	}
	return s
}

// publish makes the reserved slot visible to the consumer and returns
// the ring occupancy (in frames) right after the publish — the signal
// adaptive batching keys off.
func (r *spscRing) publish() int {
	r.pTail++
	r.tail.v.Store(r.pTail)
	r.cachedHead = r.head.v.Load()
	return int(r.pTail - r.cachedHead)
}

// pop returns the next frame, blocking while the ring is empty. ok is
// false once the ring is closed and drained. It panics with runAborted
// when the run is cancelled mid-wait.
func (r *spscRing) pop(done <-chan struct{}) (frame, bool) {
	if r.cHead == r.cachedTail {
		r.cachedTail = r.tail.v.Load()
		for r.cHead == r.cachedTail {
			if r.clsd.v.Load() != 0 {
				// Close happens after the final publish; one more tail
				// read decides drained-vs-pending without a race.
				if r.cachedTail = r.tail.v.Load(); r.cachedTail != r.cHead {
					break
				}
				return nil, false
			}
			r.cWait.pause(done)
			r.cachedTail = r.tail.v.Load()
		}
		r.cWait.reset()
	}
	return r.slots[r.cHead&r.mask], true
}

// release recycles the frame returned by the last pop; its slot buffer
// becomes reusable by the producer.
func (r *spscRing) release() {
	r.cHead++
	r.head.v.Store(r.cHead)
}

// close marks end of stream. Called once, after the producer's last
// publish (the sender-accounting closer goroutine orders this).
func (r *spscRing) close() { r.clsd.v.Store(1) }

// harvest returns every slot buffer to the pool. Only legal after the
// run is fully torn down (no producer or consumer goroutine remains):
// the next run's rings then draw the same buffers back out instead of
// allocating fresh ones.
func (r *spscRing) harvest() {
	for i := range r.slots {
		if r.slots[i] != nil {
			r.pool.put(r.slots[i])
			r.slots[i] = nil
		}
	}
}

// ringWait escalates a busy wait: a short hot spin (cheap when the peer
// is actively draining on another P), then cooperative yields, then
// short sleeps. The yield and sleep phases poll the run's done channel
// so a cancelled run never spins forever — in particular on a
// single-core scheduler, where a pure spin loop would starve the very
// goroutine it is waiting for.
type ringWait struct{ n uint32 }

func (w *ringWait) pause(done <-chan struct{}) {
	w.n++
	switch {
	case w.n < 64:
		// hot spin
	case w.n < 2048:
		select {
		case <-done:
			panic(runAborted{})
		default:
		}
		runtime.Gosched()
	default:
		select {
		case <-done:
			panic(runAborted{})
		default:
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func (w *ringWait) reset() { w.n = 0 }
