package main

import (
	"math"
	"math/rand/v2"
	"slices"

	"fairassign"
)

// The benchmark makes every input itself from --seed, so the program
// sees only generated objects, functions and mutations.

// Populations are Latin-hypercube samples: every seed places exactly one
// draw in each of n equal strata of each input variable, in a random
// order. The seed still picks every point, but no seed gets a population
// much denser or sparser than another at the top of the band, which is
// where the assignment, the frontier and so every serving cost is
// decided; with independent draws the per-mutation cost moved by tens of
// percent from one seed to the next.

// strata returns n values in [0,1), one in each stratum [j/n, (j+1)/n),
// in random order.
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, j := range rng.Perm(n) {
		out[i] = (float64(j) + rng.Float64()) / float64(n)
	}
	return out
}

// band maps two uniforms to a 2-d point of the quarter ring with radius
// in [0.85, 0.95]: good in one attribute means bad in the other, so the
// skyline (and so the availability frontier) is large. Because the front
// is convex, a linear user's favourites sit around its own weight angle
// and the assignment spreads along the whole front; on a straight band
// every user competes for the two ends, whose few points make the
// per-mutation cost differ by tens of percent from seed to seed.
func band(u, v float64) []float64 {
	r := 0.85 + 0.1*u
	a := math.Pi / 2 * v
	return []float64{r * math.Cos(a), r * math.Sin(a)}
}

// anticorrelated returns n band points numbered from firstID.
func anticorrelated(rng *rand.Rand, n int, firstID uint64) []fairassign.Object {
	us, vs := strata(rng, n), strata(rng, n)
	out := make([]fairassign.Object, n)
	for i := range out {
		out[i] = fairassign.Object{ID: firstID + uint64(i), Attributes: band(us[i], vs[i])}
	}
	return out
}

// direction maps a uniform to 2-d linear weights at angle u·90°, kept
// off the axes.
func direction(u float64) []float64 {
	a := math.Pi / 2 * (0.01 + 0.98*u)
	return []float64{math.Cos(a), math.Sin(a)}
}

// users returns n 2-d linear functions numbered from firstID.
func users(rng *rand.Rand, n int, firstID uint64) []fairassign.Function {
	out := make([]fairassign.Function, n)
	for i, u := range strata(rng, n) {
		out[i] = fairassign.Function{ID: firstID + uint64(i), Weights: direction(u)}
	}
	return out
}

// dominated2 maps two uniforms to a 2-d point in [0, 0.3]², below every point any
// function would be assigned, so its arrival or departure needs no
// reassignment.
func dominated2(u, v float64) []float64 { return []float64{0.3 * u, 0.3 * v} }

// quantised returns n d-dim objects numbered from 1, every attribute on
// one of levels evenly spaced values in [0,1], so exact score ties and
// duplicate points are common.
func quantised(rng *rand.Rand, n, d, levels int) []fairassign.Object {
	out := make([]fairassign.Object, n)
	for i := range out {
		p := make([]float64, d)
		for k := range p {
			p[k] = float64(rng.IntN(levels)) / float64(levels-1)
		}
		out[i] = fairassign.Object{ID: uint64(i + 1), Attributes: p}
	}
	return out
}

// randomUsers returns n d-dim linear users numbered from 1 with
// independent positive weights, which the program normalizes.
func randomUsers(rng *rand.Rand, n, d int) []fairassign.Function {
	out := make([]fairassign.Function, n)
	for i := range out {
		w := make([]float64, d)
		for k := range w {
			w[k] = 0.01 + rng.Float64()
		}
		out[i] = fairassign.Function{ID: uint64(i + 1), Weights: w}
	}
	return out
}

// stream yields uniforms in [0,1), stratified over consecutive blocks
// of n draws, so the churn of every seed spreads evenly over its range.
type stream struct {
	rng *rand.Rand
	n   int
	buf []float64
}

func newStream(rng *rand.Rand) *stream { return &stream{rng: rng, n: 64} }

func (s *stream) next() float64 {
	if len(s.buf) == 0 {
		s.buf = strata(s.rng, s.n)
	}
	v := s.buf[0]
	s.buf = s.buf[1:]
	return v
}

// live is the benchmark's own record of a population, ordered by a key
// (an object's band level, a user's weight angle). A departure is drawn
// by rank from a stream, which is a uniform choice of member, spread
// over the key alike for every seed.
type live[T any] struct {
	keys  []float64
	items []T
	key   func(T) float64
}

func newLive[T any](items []T, key func(T) float64) *live[T] {
	l := &live[T]{key: key}
	for _, it := range items {
		l.add(it)
	}
	return l
}

func (l *live[T]) add(it T) {
	k := l.key(it)
	i, _ := slices.BinarySearch(l.keys, k)
	l.keys = slices.Insert(l.keys, i, k)
	l.items = slices.Insert(l.items, i, it)
}

// rank returns the position of the member at quantile u.
func (l *live[T]) rank(u float64) int { return min(int(u*float64(len(l.items))), len(l.items)-1) }

func (l *live[T]) removeAt(i int) {
	l.keys = slices.Delete(l.keys, i, i+1)
	l.items = slices.Delete(l.items, i, i+1)
}

// level is an object's key: its distance from the origin.
func level(o fairassign.Object) float64 { return math.Hypot(o.Attributes[0], o.Attributes[1]) }

// angle is a 2-d user's key: the share of weight on the second attribute.
func angle(f fairassign.Function) float64 { return f.Weights[1] / (f.Weights[0] + f.Weights[1]) }
