package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/join"
	"bigdansing/internal/model"
)

// ineqRule is a two-predicate inequality DC over TaxB's salary (4) and rate
// (5) columns, shaped like the compiled φ2: Detect re-checks the predicates
// on the ordered pair it is given and captures both tuples' cells; GenFix
// negates each predicate.
func ineqRule(id string, salaryOp, rateOp model.Op) *Rule {
	conds := []join.Cond{
		{LeftCol: 4, Op: salaryOp, RightCol: 4},
		{LeftCol: 5, Op: rateOp, RightCol: 5},
	}
	return &Rule{
		ID:         id,
		OrderConds: conds,
		Detect: func(it Item) []model.Violation {
			l, r := it.Left(), it.Right()
			for _, c := range conds {
				if !c.Eval(l, r) {
					return nil
				}
			}
			return []model.Violation{model.NewViolation(id,
				model.NewCell(l.ID, 4, "salary", l.Cell(4)),
				model.NewCell(l.ID, 5, "rate", l.Cell(5)),
				model.NewCell(r.ID, 4, "salary", r.Cell(4)),
				model.NewCell(r.ID, 5, "rate", r.Cell(5)))}
		},
		GenFix: func(v model.Violation) []model.Fix {
			return []model.Fix{
				model.NewCellFix(v.Cells[0], salaryOp.Negate(), v.Cells[2]),
				model.NewCellFix(v.Cells[1], rateOp.Negate(), v.Cells[3]),
			}
		},
	}
}

// bruteForceDetect runs the rule's Detect over every ordered pair of
// distinct tuples and keeps the first occurrence of each violation.
func bruteForceDetect(r *Rule, ts []model.Tuple) []model.Violation {
	var out []model.Violation
	seen := map[model.ViolationKey]bool{}
	for _, l := range ts {
		for _, t := range ts {
			if l.ID == t.ID {
				continue
			}
			for _, v := range r.Detect(PairItem(l, t)) {
				if k := v.MapKey(); !seen[k] {
					seen[k] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// TestOCJoinPipelineMatchesBruteForce holds the streamed OCJoin pipeline
// (join, Detect and GenFix in one fused stage, then collect and dedup) to a
// brute-force run of the rule's Detect on 2k TaxB rows, for φ2 and for its
// non-strict variant, whose tied tuples violate in both orientations and so
// yield duplicate violations. Each parallelism must also return the same
// order on every run.
func TestOCJoinPipelineMatchesBruteForce(t *testing.T) {
	rel := datagen.TaxB(2000, 0.05, 7).Dirty
	for _, r := range []*Rule{
		ineqRule("phi2", model.OpGT, model.OpLT),
		ineqRule("phi2-nonstrict", model.OpGE, model.OpLE),
	} {
		want := violationKeys(&DetectResult{Violations: bruteForceDetect(r, rel.Tuples)})
		if len(want) == 0 {
			t.Fatalf("%s: brute force found no violations; the test needs some", r.ID)
		}
		for p := 1; p <= 3; p++ {
			res, err := DetectRules(engine.New(p), []*Rule{r}, rel)
			if err != nil {
				t.Fatalf("%s P=%d: %v", r.ID, p, err)
			}
			if got := violationKeys(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s P=%d: %d violations, brute force %d", r.ID, p, len(got), len(want))
			}
			wantSets := make([]model.FixSet, len(res.Violations))
			for i, v := range res.Violations {
				wantSets[i] = model.FixSet{Violation: v, Fixes: r.GenFix(v)}
			}
			if !sameFixSets(res.FixSets, wantSets) {
				t.Fatalf("%s P=%d: FixSets misaligned with Violations or their fixes", r.ID, p)
			}
			again, err := DetectRules(engine.New(p), []*Rule{r}, rel)
			if err != nil {
				t.Fatalf("%s P=%d: %v", r.ID, p, err)
			}
			if !sameFixSets(again.FixSets, res.FixSets) || !slices.EqualFunc(again.Violations, res.Violations, sameViolation) {
				t.Fatalf("%s P=%d: two runs returned different results or orders", r.ID, p)
			}
		}
	}
}

// sameViolation and sameFixSets compare with == on cells and fixes, which is
// exact for data without NaN and much cheaper than reflect.DeepEqual on
// tens of thousands of violations.
func sameViolation(a, b model.Violation) bool {
	return a.RuleID == b.RuleID && slices.Equal(a.Cells, b.Cells)
}

func sameFixSets(a, b []model.FixSet) bool {
	return slices.EqualFunc(a, b, func(x, y model.FixSet) bool {
		return sameViolation(x.Violation, y.Violation) && slices.Equal(x.Fixes, y.Fixes)
	})
}

// TestOCJoinDetectPanicIsPipelineError checks that a Detect panicking inside
// the fused OCJoin stage fails the call with a pipeline error.
func TestOCJoinDetectPanicIsPipelineError(t *testing.T) {
	rel := datagen.TaxB(500, 0.05, 3).Dirty
	r := ineqRule("phi2", model.OpGT, model.OpLT)
	inner := r.Detect
	r.Detect = func(it Item) []model.Violation {
		if it.Left().ID%97 == 13 {
			panic("detect exploded")
		}
		return inner(it)
	}
	_, err := DetectRules(engine.New(2), []*Rule{r}, rel)
	if err == nil {
		t.Fatal("expected the Detect panic to surface as an error")
	}
	if msg := err.Error(); !strings.Contains(msg, "pipeline phi2") || !strings.Contains(msg, "detect exploded") {
		t.Fatalf("error should name the pipeline and carry the panic: %v", err)
	}
}

// firstSeen is the reference dedup: keep each violation key's first
// FixSet, in order.
func firstSeen(sets []model.FixSet) []model.FixSet {
	var out []model.FixSet
	seen := map[model.ViolationKey]bool{}
	for _, fs := range sets {
		if k := fs.Violation.MapKey(); !seen[k] {
			seen[k] = true
			out = append(out, fs)
		}
	}
	return out
}

// TestDedupKeepsFirstOccurrence runs two pipelines under one rule ID: a UDF
// that emits a one-cell violation per unique pair (so the same violation
// repeats inside the pipeline, which enumerates without a Distinct) and a
// second rule re-emitting some of them. The result must be the first-seen
// dedup of the two pipelines' outputs in order, with FixSets aligned.
func TestDedupKeepsFirstOccurrence(t *testing.T) {
	rel := exampleTax()
	cityCell := func(t model.Tuple) model.Cell { return model.NewCell(t.ID, 2, "city", t.Cell(2)) }
	fixOf := func(v model.Violation) []model.Fix {
		return []model.Fix{model.NewConstFix(v.Cells[0], model.OpEQ, model.S("?"))}
	}
	a := &Rule{ID: "dup", Symmetric: true, GenFix: fixOf,
		Detect: func(it Item) []model.Violation {
			return []model.Violation{model.NewViolation("dup", cityCell(it.Left()))}
		}}
	b := &Rule{ID: "dup", Unary: true, GenFix: fixOf,
		Detect: func(it Item) []model.Violation {
			if it.One().ID%2 == 0 {
				return []model.Violation{model.NewViolation("dup", cityCell(it.One()))}
			}
			return nil
		}}
	ctx := engine.New(2)
	lp, err := PlanRules([]*Rule{a, b}, rel)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewPlanner().Plan(lp)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Pipelines) != 2 || pp.Pipelines[0].Impl != IterUniquePairs {
		t.Fatalf("want a unique-pairs pipeline and a second one, got %d pipelines", len(pp.Pipelines))
	}
	// Reference: each pipeline's raw output (before any dedup), in order.
	var raw []model.FixSet
	for i := range pp.Pipelines {
		ex := newSparkExec(ctx)
		one := &DetectResult{}
		if err := ex.runPipeline(pp, &pp.Pipelines[i], one); err != nil {
			t.Fatal(err)
		}
		raw = append(raw, one.FixSets...)
	}
	want := firstSeen(raw)
	if len(want) == len(raw) || len(want) == 0 {
		t.Fatalf("the pipelines should produce duplicates: %d raw, %d distinct", len(raw), len(want))
	}
	res, err := RunPlanSpark(ctx, pp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FixSets, want) {
		t.Fatalf("dedup kept %d FixSets, want the %d first occurrences in order", len(res.FixSets), len(want))
	}
	for i, fs := range res.FixSets {
		if !reflect.DeepEqual(fs.Violation, res.Violations[i]) {
			t.Fatalf("Violations[%d] not aligned with its FixSet", i)
		}
	}
}

// TestDedupeResultMatchesReference drives dedupeResult directly with many
// colliding keys — one- to six-cell violations (six spill past the inline
// key), two rule IDs — and compares it with the map-based reference.
func TestDedupeResultMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 100, 5000} {
		var sets []model.FixSet
		for i := 0; i < n; i++ {
			cells := make([]model.Cell, 1+rng.Intn(6))
			for j := range cells {
				cells[j] = model.NewCell(int64(rng.Intn(8)), rng.Intn(2), "a", model.I(int64(i)))
			}
			v := model.NewViolation(fmt.Sprint("r", rng.Intn(2)), cells...)
			sets = append(sets, model.FixSet{Violation: v, Fixes: []model.Fix{model.NewConstFix(cells[0], model.OpEQ, model.I(int64(i)))}})
		}
		want := firstSeen(sets)
		r := &DetectResult{FixSets: slices.Clone(sets)}
		for _, fs := range sets {
			r.Violations = append(r.Violations, fs.Violation)
		}
		dedupeResult(r)
		if !reflect.DeepEqual(r.FixSets, want) {
			t.Fatalf("n=%d: kept %d FixSets, reference %d", n, len(r.FixSets), len(want))
		}
		for i, fs := range r.FixSets {
			if !reflect.DeepEqual(fs.Violation, r.Violations[i]) {
				t.Fatalf("n=%d: Violations[%d] not aligned with its FixSet", n, i)
			}
		}
	}
}
