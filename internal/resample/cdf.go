package resample

import (
	"math"

	"sound/internal/stat"
)

// This file is the closed form of the uncertainty model the draw paths
// sample: the distribution of PerturbValue(p) and, over a primed window,
// the probability that a perturbed value misses an interval. It sits beside
// the sampler so the two cannot drift apart: whatever PerturbValue draws,
// this file integrates.
//
// PerturbValue(p) is a point mass at v for a certain point and otherwise a
// split normal: with weight σ↑/(σ↑+σ↓) the value is v + |z|·σ↑, else
// v − |z|·σ↓ (a symmetric point is the case of equal weights). At distance
// d ≥ 0 from v on the side whose scale is σ, the mass lying further out is
//
//	σ/(σ↑+σ↓) · 2Φ(−d/σ) = σ/(σ↑+σ↓) · erfc(d/(σ√2)),
//
// zero for a one-sided point on its σ = 0 side. An uncertain point has no
// atoms, so only certain points see whether an interval end is open.

// tailCut is the distance, in units of the side's σ, from which a tail is
// taken as exactly 0: even at a one-sided point's doubled weight,
// 2Φ(−8.5) ≈ 2·10⁻¹⁷ lies below 2⁻⁵⁴, half the spacing of the float64s next
// to 1 — subtracted from 1 it leaves 1, and no uniform can tell the
// difference. A window whose points all sit further than that from every
// bound therefore gets probability exactly 0 or 1 without evaluating erfc
// at all, whichever of the two equivalent tests below (d against
// tailCut·σ, or 8d/σ against tailCut8) saw it first. Distances are carried
// in eighths of σ, the step of the table.
const (
	tailCut  = 8.5
	tailCut8 = 8 * tailCut
)

// phiStep[k] = Φ(−k/8): a step table bracketing Φ(−t) on [0, tailCut)
// between two neighbours, phiStep[⌊8t⌋+1] ≤ Φ(−t) ≤ phiStep[⌊8t⌋]; 8t
// stays below tailCut8 = 68, so 70 entries cover every index.
var phiStep = func() (t [tailCut8 + 2]float64) {
	for k := range t {
		t[k] = stat.NormalCDF(-float64(k) / 8)
	}
	return t
}()

// splitFactors puts one uncertain point in the form the integrals use: per
// side, twice the side's weight (wu = 2σ↑/(σ↑+σ↓), wd likewise) and the
// factor that turns a distance into eighths of the side's σ (+Inf on the
// flat side of a one-sided point, which then reads as out of reach). They
// travel as four scalars: a struct of them goes through the stack, and its
// half-and-half reloads stalled the bracket pass threefold.
func splitFactors(up, down float64) (wu, wd, iu, id float64) {
	r := 2 / (up + down)
	return up * r, down * r, 8 / up, 8 / down
}

// tail is the mass beyond a bound t8 eighths of σ out on a side of doubled
// weight w, and tailBounds its bracket from the step table. (0·Inf on a
// flat side is NaN and a subnormal σ sends t8 to +Inf: both are out of
// reach as well, and never index the table.)
func tail(t8, w float64) float64 {
	if !(t8 < tailCut8) {
		return 0
	}
	return 0.5 * w * math.Erfc(t8*(1/(8*math.Sqrt2)))
}

func tailBounds(t8, w float64) (lo, hi float64) {
	if !(t8 < tailCut8) {
		return 0, 0
	}
	k := int(t8)
	return w * phiStep[k+1], w * phiStep[k]
}

// beyond is the mass lying beyond a bound at signed distance d from the
// point's value — d ≥ 0 when the bound is out on the near side (factor
// and weight iNear, wNear), d < 0 when the value itself is past the bound
// and the mass is the complement of the far side's tail. MissBounds spells
// the same two cases out per end: as a function their bracket is past the
// inliner's budget, and the call costs the table pass 3 ns per near point.
func beyond(d, iNear, wNear, iFar, wFar float64) float64 {
	if d >= 0 {
		return tail(d*iNear, wNear)
	}
	return 1 - tail(-d*iFar, wFar)
}

// Interval is a level set of the real line: [A, B], or (A, B] when OpenA.
// Either end may be infinite; A ≤ B is the caller's precondition.
type Interval struct {
	A, B  float64
	OpenA bool
}

// contains reports whether the finite value v lies in the interval.
func (iv Interval) contains(v float64) bool {
	if iv.OpenA {
		return v > iv.A && v <= iv.B
	}
	return v >= iv.A && v <= iv.B
}

// miss is the probability that the perturbed value of an uncertain point
// falls outside the interval: the mass above B plus the mass below A. The
// two are disjoint; the cap only takes off what rounding may add to a sum
// of 1.
func (iv *Interval) miss(v, up, down float64) float64 {
	wu, wd, iu, id := splitFactors(up, down)
	return min(1, beyond(iv.B-v, iu, wu, id, wd)+beyond(v-iv.A, id, wd, iu, wu))
}

// Miss integrates the interval over the points of primed window slot wi:
// with qᵢ the probability that point i's perturbed value misses iv, it
// returns Σ qᵢ and Π (1 − qᵢ). Precondition: MissBounds accepted the
// window.
func (rs *Resampler) Miss(wi int, iv Interval) (sum, hit float64) {
	m := &rs.meta[wi]
	vals, tags, up, down := m.vals(), m.tags(), m.sigUp(), m.sigDown()
	hit = 1
	for i, v := range vals {
		var q float64
		if tags[i] != ClassCertain {
			q = iv.miss(v, up[i], down[i])
		} else if !iv.contains(v) {
			q = 1
		}
		sum += q
		hit *= 1 - q
	}
	return sum, hit
}

// MissBound brackets Miss's sum for one interval without evaluating erfc:
// Lo ≤ Σ qᵢ ≤ Hi term by term from the step table (a point further than
// tailCut·σ from both ends, and every certain point, contributes exactly),
// and Top is the largest lower bound of a single mass, so that
// Π (1 − qᵢ) ≤ 1 − Top.
type MissBound struct {
	Lo, Hi, Top float64
}

func (b *MissBound) add(lo, hi float64) {
	b.Lo += lo
	b.Hi += hi
	if lo > b.Top {
		b.Top = lo
	}
}

// Intervals is a set of distinct intervals laid out for MissBounds: a
// point misses an interval above its upper end or below its lower one, so
// the set is kept as the finite ends themselves, each naming its interval.
// An infinite end is never missed and has no entry.
type Intervals struct {
	All          []Interval
	upper, lower []end
}

type end struct {
	x    float64
	of   int  // index in All
	open bool // a value equal to x misses (lower ends only)
}

// Reset empties the set, keeping its arrays.
func (s *Intervals) Reset() {
	s.All, s.upper, s.lower = s.All[:0], s.upper[:0], s.lower[:0]
}

// Add returns the index in All of iv, appending it on first use.
func (s *Intervals) Add(iv Interval) int {
	for i := range s.All {
		if s.All[i] == iv {
			return i
		}
	}
	i := len(s.All)
	s.All = append(s.All, iv)
	if !math.IsInf(iv.B, 1) {
		s.upper = append(s.upper, end{x: iv.B, of: i})
	}
	if !math.IsInf(iv.A, -1) {
		s.lower = append(s.lower, end{x: iv.A, of: i, open: iv.OpenA})
	}
	return i
}

// MissBounds fills out[j] for set.All[j] in one pass over the points of
// primed window slot wi. An end further than tailCut·σ from a point on the
// side it lies on is out of that point's reach and costs one comparison —
// most ends of most points; the point's split normal is only set up, once
// for all the ends, when some end is within reach, and each such end then
// takes the table bracket of the mass beyond it. It reports false, leaving
// out unspecified, when the closed form does not describe the window's
// draws: the caller has checked WindowSafe, which leaves a negative
// uncertainty — PerturbValue accepts one, but what it then samples is not
// the split normal integrated here.
func (rs *Resampler) MissBounds(wi int, set *Intervals, out []MissBound) bool {
	m := &rs.meta[wi]
	vals, tags, up, down := m.vals(), m.tags(), m.sigUp(), m.sigDown()
	out = out[:len(set.All)]
	clear(out)
	for i, v := range vals {
		if tags[i] == ClassCertain {
			for _, e := range set.upper {
				if v > e.x {
					out[e.of].add(1, 1)
				}
			}
			for _, e := range set.lower {
				if v < e.x || (e.open && v == e.x) {
					out[e.of].add(1, 1)
				}
			}
			continue
		}
		if up[i] < 0 || down[i] < 0 {
			return false
		}
		reachUp, reachDown := tailCut*up[i], tailCut*down[i]
		var wu, wd, iu, id float64 // splitFactors, once an end needs them
		ready := false
		for _, e := range set.upper {
			d := e.x - v
			if d >= reachUp {
				continue
			}
			if !ready {
				wu, wd, iu, id = splitFactors(up[i], down[i])
				ready = true
			}
			if d >= 0 {
				lo, hi := tailBounds(d*iu, wu)
				out[e.of].add(lo, hi)
			} else {
				lo, hi := tailBounds(-d*id, wd)
				out[e.of].add(1-hi, 1-lo)
			}
		}
		for _, e := range set.lower {
			d := v - e.x
			if d >= reachDown {
				continue
			}
			if !ready {
				wu, wd, iu, id = splitFactors(up[i], down[i])
				ready = true
			}
			if d >= 0 {
				lo, hi := tailBounds(d*id, wd)
				out[e.of].add(lo, hi)
			} else {
				lo, hi := tailBounds(-d*iu, wu)
				out[e.of].add(1-hi, 1-lo)
			}
		}
	}
	return true
}
