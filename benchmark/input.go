package main

import (
	"fmt"
	"sync"

	"sound/internal/stream"
)

// phase is one contiguous stretch of the input, sent in units — binary
// frames or POST bodies — of unitPts points each.
type phase struct {
	firstPoint, points int
	firstUnit, units   int
	unitPts            int
}

func (ph phase) endPoint() int { return ph.firstPoint + ph.points }

// input is one round's generated traffic (every round of a run sends the
// same bytes), encoded before any clock starts, together with the
// reference answers for it.
type input struct {
	wl      *workload
	data    []byte // every unit's bytes, back to back
	unitEnd []int  // end offset of each unit in data
	// warm is consumed during set-up; sat is written back to back; paced
	// goes out one unit per tick.
	warm, sat, paced phase
	slices           int // the paced phase is reported in this many equal slices
	keyIndex         map[string]int32
	ref              *reference
}

func (in *input) unit(u int) []byte {
	start := 0
	if u > 0 {
		start = in.unitEnd[u-1]
	}
	return in.data[start:in.unitEnd[u]]
}

func (in *input) points() int { return in.paced.endPoint() }

// The input positions at which the run diffs the server's counters
// against the reference (indices into reference.cuts).
const (
	cutStart = iota // nothing sent yet
	cutSat          // the saturation phase is consumed
	cutEnd          // everything is consumed
)

// Run shape. A run is `rounds` identical rounds, each against a fresh
// child: set-up, the saturation burst, the paced phase. The rounds send
// the same bytes, so the input is one round long and every metric is a
// statistic over the rounds (or over their paced slices).
const (
	rounds     = 5
	satShare   = 0.45 // of a round (--seconds/rounds), at the workload's nominal satRate
	pacedShare = 0.45
	warmShare  = 0.05 // of sat+paced points
	// sliceSeconds is the nominal length of one paced slice; each slice
	// carries its own p50 and p99.
	sliceSeconds = 0.5

	tcpSatUnit  = 256  // events per frame in warm-up and saturation
	httpSatUnit = 4096 // lines per POST body
	// The paced phase sends one frame per 1 ms or one POST per 5 ms (a
	// POST round trip alone takes most of a millisecond). The paced rates
	// keep a tick either far shorter than the time a shard needs to
	// collect a 64-event transport frame, or long enough to fill several:
	// a tick about as long as a frame fill puts half the events in this
	// tick and half in the next, and the median flips between the two.
	tcpTickNs  = 1_000_000
	httpTickNs = 5_000_000
)

func (wl *workload) tickNs() int {
	if wl.transport == httpNDJSON {
		return httpTickNs
	}
	return tcpTickNs
}

// pacedSlices is how many slices a round's paced phase has for a run of
// the given length: about sliceSeconds each, at least one.
func pacedSlices(seconds float64) int {
	return max(1, int(seconds/rounds*pacedShare/sliceSeconds+0.5))
}

// layout sizes one round's three phases for a run of the given measured
// duration.
func (wl *workload) layout(seconds float64) (warm, sat, paced phase) {
	satUnit := tcpSatUnit
	if wl.transport == httpNDJSON {
		satUnit = httpSatUnit
	}
	round := seconds / rounds
	pacedUnit := wl.pacedRate * wl.tickNs() / 1e9
	n := pacedSlices(seconds)
	ticks := int(round * pacedShare * 1e9 / float64(wl.tickNs()))
	ticks = max(ticks-ticks%n, n)
	satUnits := max(1, int(round*satShare*float64(wl.satRate))/satUnit)
	warmUnits := max(1, int(warmShare*float64(satUnits*satUnit+ticks*pacedUnit))/satUnit)

	warm = phase{units: warmUnits, unitPts: satUnit, points: warmUnits * satUnit}
	sat = phase{firstPoint: warm.points, firstUnit: warmUnits, units: satUnits, unitPts: satUnit, points: satUnits * satUnit}
	paced = phase{firstPoint: sat.endPoint(), firstUnit: warmUnits + satUnits, units: ticks, unitPts: pacedUnit, points: ticks * pacedUnit}
	return warm, sat, paced
}

// prepare generates, encodes and replays the whole input. Generation and
// encoding run on the calling goroutine; each shard's reference replay
// runs on its own, fed in batches, so the set-up cost is spread over the
// machine's cores — all of it before any clock starts.
func prepare(wl *workload, seed uint64, seconds float64) (*input, error) {
	in := &input{wl: wl}
	in.warm, in.sat, in.paced = wl.layout(seconds)
	in.slices = pacedSlices(seconds)
	if in.paced.unitPts < 1 {
		return nil, fmt.Errorf("%s: paced rate %d is below one point per tick", wl.name, wl.pacedRate)
	}
	src := wl.newSource(seed)
	ref, err := newReference(wl, src.keys, []int{cutStart: 0, cutSat: in.sat.endPoint(), cutEnd: in.paced.endPoint()})
	if err != nil {
		return nil, err
	}
	in.ref = ref
	in.keyIndex = make(map[string]int32, len(src.keys))
	shardOf := make([]uint8, len(src.keys))
	for i, k := range src.keys {
		in.keyIndex[k] = int32(i)
		shardOf[i] = uint8(stream.PartitionOf(k, serverShards))
	}

	// Batches travel to the shard replays and come back through free, so
	// the hand-off allocates a fixed number of them. The slack (a few
	// batches per shard) lets the generator run ahead of a shard whose
	// windows happen to be evaluating.
	const batch, slack = 2048, 8
	feeds := make([]chan []refPoint, serverShards)
	free := make(chan []refPoint, serverShards*(slack+2))
	for i := 0; i < cap(free); i++ {
		free <- make([]refPoint, 0, batch)
	}
	var wg sync.WaitGroup
	for s := range feeds {
		feeds[s] = make(chan []refPoint, slack)
		wg.Add(1)
		go func(sh *shardReplay, feed <-chan []refPoint) {
			defer wg.Done()
			for pts := range feed {
				sh.feed(ref, pts)
				free <- pts[:0]
			}
			sh.finish(ref)
		}(ref.shards[s], feeds[s])
	}
	pending := make([][]refPoint, serverShards)
	for s := range pending {
		pending[s] = <-free
	}
	flush := func(s int) {
		if len(pending[s]) > 0 {
			feeds[s] <- pending[s]
			pending[s] = <-free
		}
	}

	var evs []stream.Event
	index := 0
generate:
	for _, ph := range []phase{in.warm, in.sat, in.paced} {
		for u := 0; u < ph.units; u++ {
			evs = evs[:0]
			for i := 0; i < ph.unitPts; i++ {
				p := src.next()
				evs = append(evs, p.ev)
				s := shardOf[p.key]
				pending[s] = append(pending[s], refPoint{
					t: p.ev.Time, v: p.ev.Value, sigUp: p.ev.SigUp, sigDown: p.ev.SigDown,
					latent: p.latent, index: int32(index), key: p.key,
				})
				if len(pending[s]) >= batch {
					flush(int(s))
				}
				index++
			}
			if in.data, err = encodeUnit(wl.transport, in.data, evs); err != nil {
				break generate
			}
			in.unitEnd = append(in.unitEnd, len(in.data))
			if len(in.unitEnd) == 1 {
				// One allocation for the whole input, sized from the first
				// unit with a little room for longer numbers later on.
				perPoint := float64(len(in.data)) / float64(ph.unitPts)
				data := make([]byte, len(in.data), int(perPoint*1.1*float64(in.points()))+1<<16)
				copy(data, in.data)
				in.data = data
			}
		}
	}
	for s := range feeds {
		flush(s)
		close(feeds[s])
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return in, ref.err()
}
