package join

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// edgeValues are the column values the streamed join must order exactly as
// the naive join's per-pair Op.Eval does: null, NaN, both zeros, both
// infinities, and a few small numbers (drawn repeatedly, so ties abound).
var edgeValues = []model.Value{
	model.Null(),
	model.F(math.NaN()),
	model.F(0), model.F(math.Copysign(0, -1)),
	model.F(math.Inf(1)), model.F(math.Inf(-1)),
	model.F(1), model.F(2), model.F(2.5), model.I(1), model.I(3),
}

// edgeTuples draws n two-column tuples from edgeValues.
func edgeTuples(n int, seed int64) []model.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([]model.Tuple, n)
	for i := range out {
		out[i] = model.NewTuple(int64(i),
			edgeValues[r.Intn(len(edgeValues))],
			edgeValues[r.Intn(len(edgeValues))])
	}
	return out
}

// TestOCJoinStreamsNaiveJoin holds the streamed OCJoin to the naive join as
// a multiset, for one and two conditions under every strict and non-strict
// operator, across partition counts, on inputs full of ties and edge values,
// and checks that two runs of the same join return the same order.
func TestOCJoinStreamsNaiveJoin(t *testing.T) {
	ops := []model.Op{model.OpLT, model.OpLE, model.OpGT, model.OpGE}
	var condSets [][]Cond
	for _, a := range ops {
		condSets = append(condSets, []Cond{{LeftCol: 0, Op: a, RightCol: 0}})
		for _, b := range ops {
			condSets = append(condSets, []Cond{{LeftCol: 0, Op: a, RightCol: 0}, {LeftCol: 1, Op: b, RightCol: 1}})
		}
	}
	inputs := map[string][]model.Tuple{
		"empty":   nil,
		"one-row": edgeTuples(1, 1),
		"edges":   edgeTuples(90, 2),
		"ties":    taxTuples(60, 3),
	}
	ctx := engine.New(3)
	for name, tuples := range inputs {
		d := engine.Parallelize(ctx, tuples, 3)
		for _, conds := range condSets {
			want := sortedKeys(NaiveInequalityJoin(tuples, conds))
			for _, nb := range []int{1, 2, 3, 7} {
				out, err := OCJoin(d, conds, nb)
				if err != nil {
					t.Fatal(err)
				}
				first, err := out.Collect()
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedKeys(first); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v nbParts=%d: OCJoin %d pairs, naive %d", name, conds, nb, len(got), len(want))
				}
				again, err := OCJoin(d, conds, nb)
				if err != nil {
					t.Fatal(err)
				}
				second, err := again.Collect()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pairKeys(first), pairKeys(second)) {
					t.Fatalf("%s %v nbParts=%d: two runs returned different orders", name, conds, nb)
				}
			}
		}
	}
}

// pairKeys lists the pairs' (left, right) ids in output order.
func pairKeys(pairs []engine.PairOf[model.Tuple]) [][2]int64 {
	out := make([][2]int64, len(pairs))
	for i, p := range pairs {
		out[i] = pairKey(p)
	}
	return out
}
