package main

import (
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/model"
)

// The oracles below share no code with the system's detection paths; the
// output checks compare the system's violation counts against them.

// fdViolations counts the violations of the FD lhs -> rhs by counting, for
// every LHS group, the tuple pairs that disagree on the RHS (each
// unordered pair is one violation).
func fdViolations(rel *model.Relation, lhs, rhs int) int {
	groups := map[model.ValueKey]map[model.ValueKey]int{}
	for _, t := range rel.Tuples {
		k := t.Cell(lhs).MapKey()
		g := groups[k]
		if g == nil {
			g = map[model.ValueKey]int{}
			groups[k] = g
		}
		g[t.Cell(rhs).MapKey()]++
	}
	pairs := func(n int) int { return n * (n - 1) / 2 }
	total := 0
	for _, g := range groups {
		n := 0
		for _, c := range g {
			n += c
			total -= pairs(c)
		}
		total += pairs(n)
	}
	return total
}

// phi2Violations counts the ordered tuple pairs with
// t1.salary > t2.salary and t1.rate < t2.rate by direct comparison.
func phi2Violations(rel *model.Relation, salary, rate int) int {
	n := rel.Len()
	sal := make([]float64, n)
	rt := make([]float64, n)
	for i, t := range rel.Tuples {
		sal[i], rt[i] = t.Cell(salary).Float(), t.Cell(rate).Float()
	}
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (sal[i] > sal[j] && rt[i] < rt[j]) || (sal[j] > sal[i] && rt[j] < rt[i]) {
				total++
			}
		}
	}
	return total
}

// bruteForce runs the rule's Detect on every ordered pair of scoped
// tuples — no blocking, no planner, no engine — and counts the distinct
// violations.
func bruteForce(rule *core.Rule, rel *model.Relation) int {
	ts := rel.Tuples
	if rule.Scope != nil {
		ts = nil
		for _, t := range rel.Tuples {
			ts = append(ts, rule.Scope(t)...)
		}
	}
	seen := map[model.ViolationKey]bool{}
	for i := range ts {
		for j := range ts {
			if i == j {
				continue
			}
			for _, v := range rule.Detect(core.PairItem(ts[i], ts[j])) {
				seen[v.MapKey()] = true
			}
		}
	}
	return len(seen)
}

// detectionQuality scores a detection-only run against the generator's
// ground truth: precision is the share of violations that contain an
// injected error cell, recall the share of injected error cells that some
// violation contains.
func detectionQuality(tr *datagen.Truth, vs []model.Violation) (precision, recall float64) {
	hit := map[model.CellKey]bool{}
	withError := 0
	for _, v := range vs {
		found := false
		for _, c := range v.Cells {
			k := c.MapKey()
			if _, ok := tr.Errors[k]; ok {
				found = true
				hit[k] = true
			}
		}
		if found {
			withError++
		}
	}
	if len(vs) > 0 {
		precision = float64(withError) / float64(len(vs))
	}
	if len(tr.Errors) > 0 {
		recall = float64(len(hit)) / float64(len(tr.Errors))
	}
	return precision, recall
}

// prefixTruth restricts a generated truth to its first n tuples, the part
// a stream actually sent.
func prefixTruth(tr *datagen.Truth, n int) *datagen.Truth {
	out := &datagen.Truth{
		Clean:  model.NewRelation(tr.Clean.Name, tr.Clean.Schema),
		Dirty:  model.NewRelation(tr.Dirty.Name, tr.Dirty.Schema),
		Errors: map[model.CellKey]model.Value{},
	}
	for i := 0; i < n && i < tr.Dirty.Len(); i++ {
		out.Clean.Append(tr.Clean.Tuples[i])
		out.Dirty.Append(tr.Dirty.Tuples[i])
	}
	for k, v := range tr.Errors {
		if k.TupleID < int64(n) {
			out.Errors[k] = v
		}
	}
	return out
}
