package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"sound/internal/stream"
	"sound/internal/wire"
)

// This file is the input side of the benchmark and nothing else: the
// four seeded generators and the two wire encoders. No timing code lives
// here, so gen_test.go can pin what the workloads are — byte-for-byte
// per seed, and by the traffic properties each one exists to have.
//
// The generators draw from math/rand/v2's PCG, never from internal/rng:
// a later change to the library's generator must not change the inputs
// the parent and the change are compared on.

// point is one generated observation: the event soundserve is sent, and
// the noise-free latent value the ground-truth replay sees in its place
// (same key, same time, so both replays window identically).
type point struct {
	ev     stream.Event
	latent float64
	key    int32 // index of ev.Key in the source's key universe
}

// source yields a workload's points in send order. keys is the whole
// key universe, so consumers can index per-key state by position.
type source struct {
	keys []string
	next func() point
}

// newRand seeds one generator stream; salt separates the workloads so a
// shared --seed does not correlate them.
func newRand(seed, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

func keyNames(prefix string, n, width int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%0*d", prefix, width, i)
	}
	return keys
}

// splitNormal draws from the asymmetric (split) normal uncertainty model
// of internal/resample.PerturbValue: up by |N(0,σ↑)| with probability
// σ↑/(σ↑+σ↓), else down by |N(0,σ↓)|.
func splitNormal(r *rand.Rand, up, down float64) float64 {
	z := math.Abs(r.NormFloat64())
	if r.Float64()*(up+down) < up {
		return z * up
	}
	return -z * down
}

// observe returns the value reported for a latent one under the hover
// error bars. The checker reads an observation v with bars (σ↑, σ↓) as
// "the true value is v + splitNormal(σ↑, σ↓)", so the observation is the
// latent value minus such a draw: what the checker resamples is then the
// posterior of the latent value, and its verdicts can be held against it.
func observe(r *rand.Rand, latent float64) float64 {
	return round3(latent - splitNormal(r, hoverSigUp, hoverSigDown))
}

// round3 keeps three decimals: NDJSON lines stay short and the binary
// and text encodings of one event carry the same value.
func round3(x float64) float64 { return math.Round(x*1e3) / 1e3 }

// denseSource is the arrival pattern clearcutSource and slidingSource
// share: nKeys keys round-robin, one point per key per time unit. Key k
// sends its first point at time k·stagger/nKeys, so the keys' window grids
// are spread evenly over a window's slide instead of all closing on the same
// event — a lockstep burst of nKeys × members verdicts would time the
// feed's line-by-line flush, and put the subscriber's queue, not the
// checker, under test.
func denseSource(prefix string, nKeys, stagger int, value func(k int, t float64) point) *source {
	keys := keyNames(prefix, nKeys, 2)
	k, t := -1, 0
	return &source{keys: keys, next: func() point {
		for {
			if k++; k == nKeys {
				k, t = 0, t+1
			}
			if t >= k*stagger/nKeys {
				break
			}
		}
		p := value(k, float64(t))
		p.ev.Time, p.ev.Key, p.key = float64(t), keys[k], int32(k)
		return p
	}}
}

// clearcutSource: 64 dense keys, mid-range values, every point certain
// (σ = 0). Nothing is near a bound and nothing needs a draw: a window is
// read once and decided by the decision-table replay, so the cost is
// transport and windowing. (With even a small σ every window pays five
// draws per point, and evaluation is over 40 % of the operator's time.)
func clearcutSource(seed uint64) *source {
	const nKeys = 64
	r := newRand(seed, 0xc1ea)
	phase := make([]float64, nKeys)
	for i := range phase {
		phase[i] = r.Float64() * 2 * math.Pi
	}
	return denseSource("c", nKeys, clearcutWindow, func(k int, t float64) point {
		latent := round3(50 + 20*math.Sin(t/97+phase[k]))
		return point{ev: stream.Event{Value: round3(latent + 0.5*r.NormFloat64())}, latent: latent}
	})
}

// borderlineWindow is mc-borderline's time window, in time units.
const borderlineWindow = 120

// Borderline geometry shared by mcBorderlineSource and slidingSource:
// latent values sit a slowly wandering margin below (or across) the range
// bound 100, observed with split-normal error bars σ↑ = 2σ↓.
const (
	hoverBound   = 100.0
	hoverSigDown = 1.0
	hoverSigUp   = 2.0
)

// hover returns the latent value of a hovering key at time t: the bound
// minus a margin that swings between lo and hi (in units of σ↑) with the
// key's own period and phase.
func hover(t, period, phase, lo, hi float64) float64 {
	s := 0.5 + 0.5*math.Sin(2*math.Pi*t/period+phase)
	return hoverBound - hoverSigUp*(lo+(hi-lo)*s)
}

// mcBorderlineSource: 256 keys with Poisson arrivals, large asymmetric
// uncertainty. 96 of the keys are sparse (mean inter-arrival 24 time
// units: a 120-unit window holds ≈ 5 points, fewer than 8 about 87 % of
// the time), the other 160 dense (mean 2: ≈ 60 points), so about a third
// of the windows are sparse while most points sit in the dense ones — the
// draws per point stay, the verdicts per point fall, and the paced phase
// can load the shards without flooding the verdict feed.
//
// Every key's latent value wanders slowly across the bound 100, between
// 0.57 σ↑ below and 0.275 σ↑ above. Across that band the probability that
// a point's true value is in range, given its observation, runs from about
// 0.4 to 0.7, so one of the workload's fraction thresholds (0.4 … 0.7) —
// and range against 103, and maxdelta against the noise's spread — has a
// posterior near 0.5 in almost every window, and Alg. 1 samples deep into
// its N = 1000.
func mcBorderlineSource(seed uint64) *source {
	const (
		nKeys     = 256
		nSparse   = 96
		sparseGap = 24.0 // per-key mean inter-arrival, time units
		denseGap  = 2.0
		rate      = nSparse/sparseGap + (nKeys-nSparse)/denseGap // points per time unit
		pSparse   = nSparse / sparseGap / rate
	)
	r := newRand(seed, 0xb0de)
	keys := keyNames("b", nKeys, 3)
	period := make([]float64, nKeys)
	phase := make([]float64, nKeys)
	for i := range period {
		period[i] = 2000 + 2000*r.Float64()
		phase[i] = r.Float64() * 2 * math.Pi
	}
	// Key k sends nothing before start[k], which spreads the keys' window
	// grids (anchored at a key's first point) evenly over a window, as
	// denseSource does: 160 dense windows closing within a few time units
	// of each other would queue behind one another and time the burst.
	start := make([]float64, nKeys)
	for k := range start {
		if k < nSparse {
			start[k] = float64(k) * borderlineWindow / nSparse
		} else {
			start[k] = float64(k-nSparse) * borderlineWindow / (nKeys - nSparse)
		}
	}
	t := 0.0
	return &source{keys: keys, next: func() point {
		t += r.ExpFloat64() / rate
		var k int
		for {
			k = r.IntN(nSparse)
			if r.Float64() >= pSparse {
				k = nSparse + r.IntN(nKeys-nSparse)
			}
			if t >= start[k] {
				break
			}
		}
		// The band is narrower for dense keys: a fraction over 60 points
		// is a sharper estimate than one over 5, and the posterior stays
		// near 0.5 only while the in-range probability stays near the
		// threshold.
		band := 0.1
		if k < nSparse {
			band = 0.3
		}
		latent := round3(hover(t, period[k], phase[k], -band, band))
		return point{
			ev:     stream.Event{Time: round3(t), Key: keys[k], Value: observe(r, latent), SigUp: hoverSigUp, SigDown: hoverSigDown},
			latent: latent, key: int32(k),
		}
	}}
}

// slidingSource: 64 dense keys like clearcut, but uncertain, and each
// key's margin to the bound dips into the borderline band for about a
// fifth of its period — so a share of the overlapping windows needs deep
// sampling and the rest decide early.
func slidingSource(seed uint64) *source {
	const nKeys = 64
	r := newRand(seed, 0x511d)
	period := make([]float64, nKeys)
	phase := make([]float64, nKeys)
	for i := range period {
		// A swing lasts four to six windows.
		period[i] = slidingSize * (4 + 2*r.Float64())
		phase[i] = r.Float64() * 2 * math.Pi
	}
	return denseSource("s", nKeys, slidingSlide, func(k int, t float64) point {
		latent := round3(hover(t, period[k], phase[k], 0.5, 12))
		return point{ev: stream.Event{Value: observe(r, latent), SigUp: hoverSigUp, SigDown: hoverSigDown}, latent: latent}
	})
}

// Many-keys traffic shape.
const (
	manyKeys       = 200_000
	manyZipfS      = 1.1
	manyWindow     = 1200.0 // time units; matches the workload's window=time:1200
	manyTick       = 0.01   // event-time advance per event
	manyDisplaced  = 0.05   // share of events sent with an earlier timestamp
	manyDisplaceBy = 2 * manyWindow
)

// manyKeysSource: 200 000 distinct keys with Zipf(1.1) popularity — far
// more than the decoder's intern table or any CPU cache holds, with a
// hot head that skews the shards — on one advancing event clock. 5 % of
// events carry a timestamp up to two windows in the past: most are
// re-sorted into an open window, some fall below their key's fired
// horizon and are dropped late. Values are clear-cut and certain; the
// work is decoding, key lookup, group state, eviction.
func manyKeysSource(seed uint64) *source {
	r := newRand(seed, 0x3a17)
	keys := keyNames("m", manyKeys, 6)
	zipf := rand.NewZipf(r, manyZipfS, 1, manyKeys-1)
	t := 0.0
	return &source{keys: keys, next: func() point {
		t += manyTick
		k := int(zipf.Uint64())
		et := t
		if r.Float64() < manyDisplaced {
			et = math.Max(0, t-r.Float64()*manyDisplaceBy)
		}
		latent := round3(50 + 30*math.Sin(float64(k)))
		v := round3(latent + 0.5*r.NormFloat64())
		return point{ev: stream.Event{Time: round3(et), Key: keys[k], Value: v}, latent: latent, key: int32(k)}
	}}
}

// transport names the wire a workload is sent over.
type transport int

const (
	tcpFrames transport = iota
	httpNDJSON
)

// encodeUnit encodes one send unit — a binary frame, or the NDJSON lines
// of one POST body — appending to dst.
func encodeUnit(tr transport, dst []byte, evs []stream.Event) ([]byte, error) {
	if tr == tcpFrames {
		return wire.AppendFrame(dst, evs)
	}
	for i := range evs {
		dst = wire.AppendNDJSON(dst, evs[i])
	}
	return dst, nil
}
