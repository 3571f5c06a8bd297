package main

import (
	"math"
	"testing"
)

func TestTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{100, 0.9},
		{20, 0.5},
		{5, 0.5},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4}, [3]float64{1.675, 3.75, 8.525}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2.5, 2.5, 2.5, 7, 1, 3.25, 8.5, 9.75, 4, 6, 0.5}, [3]float64{2.5, 3.25, 7}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.data)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.data)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", c.data, i, got, c.want[i])
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
	s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %g, %v", s, ok)
	}
}

func TestBlockMedianIgnoresOneBadBlock(t *testing.T) {
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 0; i < 50; i++ {
		xs[i] = 1000 // a stall at the start: block 1's whole tail
	}
	p99 := func(s []float64) float64 { return quantile(s, 0.99) }
	if all := p99(sortedCopy(xs)); all != 1000 {
		t.Fatalf("p99 over all samples = %g, want the stall", all)
	}
	clean := p99(sortedCopy(xs[1000:2000]))
	if got := blockMedian(xs, tailSamples, p99); got != clean {
		t.Errorf("block median p99 = %g, want a clean block's %g", got, clean)
	}
	if got := blockMedian(xs[:1500], tailSamples, p99); got != 1000 {
		t.Errorf("too few samples for blocks: got %g, want p99 over all", got)
	}
}

func TestBlockRate(t *testing.T) {
	// 400 completions at 100/s, except the second block runs at 50/s.
	var ats []float64
	at := 0.0
	for i := 0; i < 400; i++ {
		if i >= 100 && i < 200 {
			at += 0.02
		} else {
			at += 0.01
		}
		ats = append(ats, at)
	}
	if got := blockRate(ats); math.Abs(got-100) > 1e-6 {
		t.Errorf("blockRate = %g, want 100", got)
	}
	if blockRate(nil) != 0 {
		t.Error("blockRate of nothing should be 0")
	}
}
