package main

import "sort"

// quartiles returns the first quartile, median and third quartile of xs with
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so the figures here match the ones the bounds are checked with.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	n := len(s)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(n-1, j))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
