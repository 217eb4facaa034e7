package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads compare reports match the ones computed from the same values
// elsewhere. With fewer than two values both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics, 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// hdQuantile returns the Harrell–Davis estimate of the q-quantile of xs
// (0.5 <= q < 1): the mean of all order statistics weighted by a
// Beta(q(n+1), (1-q)(n+1)) distribution. A few dozen unlike operations
// (matrix cells, engine runs) leave gaps between neighbouring order
// statistics, and a plain quantile jumps across a gap whenever noise swaps
// two of them; the weighted mean moves smoothly. For large samples it
// agrees with the plain quantile.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	cdf := betaCDF(a, b)
	// Order statistics more than 12 standard deviations of the weight
	// distribution from its mean carry no weight worth computing.
	mu := a / (a + b)
	sd := math.Sqrt(a*b/(a+b+1)) / (a + b)
	lo := max(0, int(math.Floor((mu-12*sd)*float64(n))))
	hi := min(n, int(math.Ceil((mu+12*sd)*float64(n))))
	var sum, total float64
	prev := cdf(float64(lo) / float64(n))
	for i := lo; i < hi; i++ {
		next := cdf(float64(i+1) / float64(n))
		sum += (next - prev) * s[i]
		total += next - prev
		prev = next
	}
	return sum / total
}

// betaCDF returns the regularized incomplete beta function x -> I_x(a, b),
// evaluated by its continued fraction (Lentz's method) on whichever side
// converges quickly.
func betaCDF(a, b float64) func(x float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return func(x float64) float64 {
		switch {
		case x <= 0:
			return 0
		case x >= 1:
			return 1
		}
		front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) - la - lb + lab)
		if x < (a+1)/(a+b+2) {
			return front * betaFraction(x, a, b) / a
		}
		return 1 - front*betaFraction(1-x, b, a)/b
	}
}

func betaFraction(x, a, b float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10_000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
