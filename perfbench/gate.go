package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fairassign"
)

// The correctness gates run outside the timed segments. Each compares
// the program's answer with an independent computation through the
// public API, bit for bit.

// samePairs reports whether two matchings hold the same pairs with the
// same score bits, in any order.
func samePairs(got, want []fairassign.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("matching has %d pairs, want %d", len(got), len(want))
	}
	g, w := canonical(got), canonical(want)
	for i := range g {
		if g[i].FunctionID != w[i].FunctionID || g[i].ObjectID != w[i].ObjectID ||
			math.Float64bits(g[i].Score) != math.Float64bits(w[i].Score) {
			return fmt.Errorf("pair %d differs: got %+v, want %+v", i, g[i], w[i])
		}
	}
	return nil
}

func canonical(ps []fairassign.Pair) []fairassign.Pair {
	s := slices.Clone(ps)
	slices.SortFunc(s, func(a, b fairassign.Pair) int {
		return cmp.Or(cmp.Compare(a.FunctionID, b.FunctionID), cmp.Compare(a.ObjectID, b.ObjectID))
	})
	return s
}

// sameRanking reports whether two top-k answers name the same objects
// in the same order with the same score bits.
func sameRanking(got, want []fairassign.Ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("top-k has %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Object.ID != want[i].Object.ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("top-k rank %d differs: got object %d (%v), want %d (%v)",
				i, got[i].Object.ID, got[i].Score, want[i].Object.ID, want[i].Score)
		}
	}
	return nil
}

// coldMatching solves the population from scratch with SB.
func coldMatching(objects []fairassign.Object, functions []fairassign.Function) ([]fairassign.Pair, error) {
	s, err := fairassign.NewSolver(objects, functions, fairassign.Options{Workers: workers, BuildWorkers: workers})
	if err != nil {
		return nil, err
	}
	res, err := s.Solve()
	if err != nil {
		return nil, err
	}
	return res.Pairs, nil
}

// gateServe checks a serving workload: the maintained matching equals a
// cold solve of the final population, and the last read equals a fresh
// TopK over the population it observed (the final one: every step reads
// after its mutation).
func gateServe(matching []fairassign.Pair, objects []fairassign.Object, functions []fairassign.Function,
	lastQuery fairassign.Function, lastRead []fairassign.Ranked, k int) error {
	cold, err := coldMatching(objects, functions)
	if err != nil {
		return fmt.Errorf("cold solve: %w", err)
	}
	if err := samePairs(matching, cold); err != nil {
		return fmt.Errorf("maintained matching vs cold solve: %w", err)
	}
	want, err := fairassign.TopK(objects, lastQuery, k, false)
	if err != nil {
		return fmt.Errorf("reference top-k: %w", err)
	}
	if err := sameRanking(lastRead, want); err != nil {
		return fmt.Errorf("last read vs reference top-k: %w", err)
	}
	return nil
}
