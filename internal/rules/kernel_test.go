package rules

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
)

// perPair returns a copy of r without vectorized forms: every executor
// then builds one candidate Item per pair and calls the tuple Detect on
// it — the oracle the block kernels are held to.
func perPair(r *core.Rule) *core.Rule {
	c := *r
	c.Vec = nil
	return &c
}

// kernelValues are the cell values that stress the kernel's class and
// conflict logic: NaN (Equal to every number), both zeros (Equal, but
// rendered differently), infinities, null, the same number as int, float
// and string, and multi-byte strings.
var kernelValues = []model.Value{
	model.F(math.NaN()),
	model.F(math.Float64frombits(0x7ff8000000000001)), // a second NaN payload
	model.F(math.Copysign(0, -1)),
	model.F(0),
	model.I(0),
	model.S("0"),
	model.F(math.Inf(1)),
	model.F(math.Inf(-1)),
	model.Null(),
	model.I(1),
	model.F(1),
	model.S("1"),
	model.F(1.5),
	model.S("1.5"),
	model.S("NaN"),
	model.S("Zürich"),
	model.S("東京"),
	model.S("x"),
}

const kernelSchema = "k,k2,a,b,x:float"

// kernelRelation builds seeded rows over kernelSchema: keys from a small
// domain with float corner cases (so one-tuple, mixed and all-equal blocks
// all occur), RHS cells drawn mostly from one value per key with a tail of
// kernelValues, and a few keys whose rows all agree.
func kernelRelation(n int, seed int64) *model.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := model.NewRelation("kern", model.MustParseSchema(kernelSchema))
	pick := func() model.Value { return kernelValues[rng.Intn(len(kernelValues))] }
	for i := 0; i < n; i++ {
		var k model.Value
		switch r := rng.Intn(20); {
		case r == 0:
			k = model.F(math.NaN())
		case r == 1:
			k = model.F(math.Copysign(0, -1))
		case r == 2:
			k = model.F(0)
		case r == 3:
			k = model.I(int64(1000 + i)) // a one-tuple block
		default:
			k = model.I(int64(rng.Intn(12)))
		}
		a, b := model.S(fmt.Sprintf("c%v", k)), model.I(7)
		// Keys 0-2 form all-equal blocks; every other block gets a tail of
		// corner values.
		if k.Kind != model.KindInt || k.Int >= 3 {
			if rng.Intn(3) == 0 {
				a = pick()
			}
			if rng.Intn(3) == 0 {
				b = pick()
			}
		}
		rel.Append(model.NewTuple(int64(i+1), k, model.S(fmt.Sprintf("g%d", rng.Intn(2))), a, b, pick()))
	}
	return rel
}

// kernelRules compiles the rules the differential test runs: FDs with a
// single, a float and a composite LHS and with two RHS attributes, one FD
// declared asymmetric so it runs on ordered pairs, and a blocked DC in both
// pair enumerations.
func kernelRules(t testing.TB) []*core.Rule {
	schema := model.MustParseSchema(kernelSchema)
	var out []*core.Rule
	for i, spec := range []string{"k -> a", "x -> b", "k, k2 -> a", "k -> a, b", "k2, k -> b"} {
		fd, err := ParseFD(fmt.Sprintf("fd%d", i+1), spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fd.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	out[len(out)-1].Symmetric = false
	for i, spec := range []string{"t1.k = t2.k & t1.a != t2.a", "t1.k = t2.k & t1.x > t2.x"} {
		dc, err := ParseDC(fmt.Sprintf("dc%d", i+1), spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := dc.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		if r.Vec == nil || r.Vec.DetectBlock == nil {
			t.Fatalf("blocked DC %q should compile a block kernel", spec)
		}
		out = append(out, r)
	}
	return out
}

// encodeResult renders a result as the binary encoding of each violation
// and its fix set, in order: byte identity covers float bit patterns (NaN
// payloads, −0) that reflect.DeepEqual cannot compare.
func encodeResult(r *core.DetectResult) []string {
	out := make([]string, len(r.FixSets))
	for i, fs := range r.FixSets {
		out[i] = string(model.AppendViolation(nil, r.Violations[i])) + "|" + string(model.EncodeFixSet(fs))
	}
	return out
}

func requireIdentical(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d violations, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: violation %d differs", label, i)
		}
	}
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestBlockKernelMatchesPerPairOracle runs the kernel-backed executors —
// the local dataflow backend on its tuple and batch paths, the broadcast
// variant and the MapReduce backend — against the per-pair Detect. The
// local runs must reproduce DetectRules' per-pair result exactly, in
// order. Broadcast and MapReduce group in their own order, so each must
// match its own per-pair run exactly and the oracle as a multiset.
func TestBlockKernelMatchesPerPairOracle(t *testing.T) {
	rs := kernelRules(t)
	oracleRules := make([]*core.Rule, len(rs))
	for i, r := range rs {
		oracleRules[i] = perPair(r)
	}
	tupleCtx := engine.New(4)
	batchCtx := engine.NewWithConfig(engine.Config{Parallelism: 4, BatchSize: 7})
	eng, err := mapred.New(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	plan := func(rules []*core.Rule, rel *model.Relation, broadcast bool) *core.PhysicalPlan {
		lp, err := core.PlanRules(rules, rel)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := core.NewPlanner().Plan(lp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pp.Pipelines {
			pp.Pipelines[i].Broadcast = broadcast
		}
		return pp
	}
	run := func(label string, fn func() (*core.DetectResult, error)) []string {
		t.Helper()
		res, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return encodeResult(res)
	}

	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{1, 2, 60, 400} {
			rel := kernelRelation(n, seed)
			name := fmt.Sprintf("seed=%d rows=%d", seed, n)
			oracle := run(name+" oracle", func() (*core.DetectResult, error) {
				return core.DetectRules(tupleCtx, oracleRules, rel)
			})
			if n == 400 && len(oracle) == 0 {
				t.Fatalf("%s: test data produced no violations", name)
			}
			for _, ctx := range []struct {
				label string
				ctx   *engine.Context
			}{{"tuple", tupleCtx}, {"batch", batchCtx}} {
				label := name + " " + ctx.label
				requireIdentical(t, label+" local", oracle, run(label+" local", func() (*core.DetectResult, error) {
					return core.DetectRules(ctx.ctx, rs, rel)
				}))
				want := run(label+" broadcast oracle", func() (*core.DetectResult, error) {
					return core.RunPlanSpark(ctx.ctx, plan(oracleRules, rel, true))
				})
				got := run(label+" broadcast", func() (*core.DetectResult, error) {
					return core.RunPlanSpark(ctx.ctx, plan(rs, rel, true))
				})
				requireIdentical(t, label+" broadcast", want, got)
				requireIdentical(t, label+" broadcast vs oracle", sorted(oracle), sorted(got))
			}
			want := run(name+" mapred oracle", func() (*core.DetectResult, error) {
				return core.RunPlanMapReduce(eng, plan(oracleRules, rel, false), 3, 3)
			})
			got := run(name+" mapred", func() (*core.DetectResult, error) {
				return core.RunPlanMapReduce(eng, plan(rs, rel, false), 3, 3)
			})
			requireIdentical(t, name+" mapred", want, got)
			requireIdentical(t, name+" mapred vs oracle", sorted(oracle), sorted(got))
		}
	}
}

// TestBlockKernelMatchesPerPairOnTaxA: on a TaxA instance with the paper's
// φ1 the kernel-backed DetectRules result is reflect.DeepEqual to the
// per-pair one — violations, fix sets and their order.
func TestBlockKernelMatchesPerPairOnTaxA(t *testing.T) {
	tr := datagen.TaxA(20_000, 0.1, 1)
	fd, err := ParseFD("phi1", "zipcode -> city")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fd.Compile(datagen.TaxSchema())
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(4)
	want, err := core.DetectRules(ctx, []*core.Rule{perPair(r)}, tr.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DetectRules(ctx, []*core.Rule{r}, tr.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Violations) == 0 {
		t.Fatal("TaxA instance produced no violations")
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) || !reflect.DeepEqual(got.FixSets, want.FixSets) {
		t.Fatalf("kernel result differs from the per-pair result (%d vs %d violations)",
			len(got.Violations), len(want.Violations))
	}
}

// FuzzFDDetectBlock checks the FD block kernel against the pairwise loop
// it replaces. Each input byte triple is one tuple whose LHS and two RHS
// cells index kernelValues; the tuples are grouped by the rule's Block
// like the executors group them, and every block is judged both ways, in
// both pair enumerations.
func FuzzFDDetectBlock(f *testing.F) {
	f.Add([]byte{9, 0, 1, 9, 2, 3, 9, 0, 1})
	f.Add([]byte{0, 9, 10, 0, 11, 9, 0, 0, 2, 0, 4, 5})
	f.Add([]byte{3, 15, 16, 3, 15, 16, 3, 15, 16})
	f.Add([]byte{2, 3, 3, 2, 4, 5, 2, 6, 7, 2, 8, 8, 2, 12, 13})
	schema := model.MustParseSchema("k,a,b")
	var fdRules []*core.Rule
	for _, spec := range []string{"k -> a", "k -> a, b", "k, b -> a"} {
		fd, err := ParseFD("fz", spec)
		if err != nil {
			f.Fatal(err)
		}
		r, err := fd.Compile(schema)
		if err != nil {
			f.Fatal(err)
		}
		fdRules = append(fdRules, r)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ts []model.Tuple
		for i := 0; i+2 < len(data) && len(ts) < 64; i += 3 {
			v := func(b byte) model.Value { return kernelValues[int(b)%len(kernelValues)] }
			ts = append(ts, model.NewTuple(int64(len(ts)+1), v(data[i]), v(data[i+1]), v(data[i+2])))
		}
		for _, r := range fdRules {
			idx := map[model.ValueKey]int{}
			var blocks [][]model.Tuple
			for _, tu := range ts {
				k := r.Block(tu).MapKey()
				i, ok := idx[k]
				if !ok {
					i = len(blocks)
					idx[k] = i
					blocks = append(blocks, nil)
				}
				blocks[i] = append(blocks[i], tu)
			}
			for _, us := range blocks {
				for _, ordered := range []bool{false, true} {
					iterate := core.PairsUnique
					if ordered {
						iterate = core.PairsOrdered
					}
					var want []model.Violation
					for _, it := range iterate([][]model.Tuple{us}) {
						want = append(want, r.Detect(it)...)
					}
					got := r.Vec.DetectBlock(us, ordered)
					if len(got) != len(want) {
						t.Fatalf("%s ordered=%v: kernel found %d violations, pairwise %d", r.ID, ordered, len(got), len(want))
					}
					for i := range want {
						if !bytes.Equal(model.AppendViolation(nil, got[i]), model.AppendViolation(nil, want[i])) {
							t.Fatalf("%s ordered=%v: violation %d differs:\n  kernel   %v\n  pairwise %v", r.ID, ordered, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestFDKernelCleanBlockAllocatesNothing: a block whose RHS holds one value
// costs one pass and no heap allocation, on either LHS shape.
func TestFDKernelCleanBlockAllocatesNothing(t *testing.T) {
	schema := model.MustParseSchema(kernelSchema)
	us := make([]model.Tuple, 50)
	for i := range us {
		us[i] = model.NewTuple(int64(i+1), model.I(3), model.S("g"), model.S("Zürich"), model.F(math.NaN()), model.F(1))
	}
	for _, spec := range []string{"k -> a, b", "k, k2 -> a"} {
		fd, err := ParseFD("clean", spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fd.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if vs := r.Vec.DetectBlock(us, false); vs != nil {
				t.Fatalf("%s: clean block reported %d violations", spec, len(vs))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: clean block allocated %.1f times per call", spec, allocs)
		}
	}
}
