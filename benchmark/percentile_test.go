package main

import (
	"strings"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileSampleRule(t *testing.T) {
	// p99 has ten samples beyond it from n = 1000 on, not before.
	if _, err := percentile(ramp(999), 99); err == nil || !strings.Contains(err.Error(), "needs 1000 samples") {
		t.Fatalf("p99 of 999 samples: err = %v, want a refusal naming 1000", err)
	}
	v, err := percentile(ramp(1000), 99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(ramp(20), 50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(ramp(19), 50); err == nil {
		t.Fatal("p50 of 19 samples was reported; nine samples lie beyond it")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{{20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		q, v, n, err := highestPercentile(ramp(tc.n))
		if err != nil || q != tc.wantQ || n != tc.n {
			t.Errorf("n=%d: got p%g (n=%d, %v), want p%g", tc.n, q, n, err, tc.wantQ)
		}
		if beyond := float64(tc.n) - v; beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %g samples beyond it", tc.n, q, v, beyond)
		}
	}
	if _, _, _, err := highestPercentile(ramp(19)); err == nil {
		t.Error("19 samples support no percentile, but one was reported")
	}
}

func TestSliceResults(t *testing.T) {
	// Four slices of 1000 ticks, one verdict per tick, latency 1..1000 µs.
	// In slice 3 the box froze: a tenth of its ticks went out late and the
	// verdicts behind them took a second. Its own p99 and late share show
	// it; the other slices do not.
	const slices, ticks, tickNs = 4, 1000, 1000
	var ms []matched
	lag := make([]float64, slices*ticks)
	for s := 0; s < slices; s++ {
		for i := 0; i < ticks; i++ {
			due, lat := int64((s*ticks+i)*tickNs), int64(i+1)*1000
			if s == 2 && i >= 900 {
				lat, lag[s*ticks+i] = 1e9, 50
			}
			ms = append(ms, matched{due: due, recv: due + lat})
		}
	}
	res, err := sliceResults(ms, lag, slices, slices*ticks*tickNs)
	if err != nil || len(res) != slices {
		t.Fatalf("%d slices, %v", len(res), err)
	}
	for i, sl := range res {
		if want := i != 2; sl.valid() != want || sl.verdicts != ticks {
			t.Errorf("slice %d: %+v, valid %v, want %v", i+1, sl, sl.valid(), want)
		}
	}
	if res[0].p50 != 0.5 || res[0].p99 != 0.99 || res[3].p99 != 0.99 || res[2].p99 != 1000 || res[2].late != 0.1 {
		t.Errorf("slices %+v", res)
	}
	// Every slice has to carry the percentile on its own.
	if _, err := sliceResults(ms[:len(ms)-500], lag, slices, slices*ticks*tickNs); err == nil || !strings.Contains(err.Error(), "slice 4 of 4") {
		t.Fatalf("short slice: err = %v, want a refusal naming the slice", err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 5,1,3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", m)
	}
}
