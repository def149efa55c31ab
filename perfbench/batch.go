package main

import (
	"fmt"
	"sort"
	"time"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// parallelism sizes the engine and the parallel repair for a 2-core box.
const parallelism = 2

// setupReps is how often a batch run repeats its set-up; setup_s is the
// median.
const setupReps = 5

var workloads = map[string]func(*run){
	"taxa-fd-clean":  func(r *run) { runBatch(r, taxaClean) },
	"taxb-dc-detect": func(r *run) { runBatch(r, taxbDetect) },
	"tpch-fd-spill":  func(r *run) { runBatch(r, tpchSpill) },
	"serve-stream":   runStream,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// batchSpec describes a workload that times whole-relation calls.
type batchSpec struct {
	rows      int
	instances int // input instances per run, each from its own seed
	smallRows int // size of the down-scaled instance checked by brute force
	errRate   float64
	gen       func(rows int, errRate float64, seed int64) *datagen.Truth
	rule      func() *core.Rule
	clean     bool // Clean (detect-repair loop) instead of DetectRules
	// config builds the engine configuration for an instance of n rows.
	config func(work string, n int) engine.Config
	// oracle counts the violations of a relation independently.
	oracle func(*model.Relation) int
}

func mustCompile(r *core.Rule, err error) *core.Rule {
	if err != nil {
		panic(fmt.Sprintf("perfbench: compiling a rule: %v", err))
	}
	return r
}

func phi1() *core.Rule {
	fd, err := rules.ParseFD("phi1", "zipcode -> city")
	if err != nil {
		panic(err)
	}
	return mustCompile(fd.Compile(datagen.TaxSchema()))
}

func phi2() *core.Rule {
	dc, err := rules.ParseDC("phi2", "t1.salary > t2.salary & t1.rate < t2.rate")
	if err != nil {
		panic(err)
	}
	return mustCompile(dc.Compile(datagen.TaxSchema()))
}

func phi3() *core.Rule {
	fd, err := rules.ParseFD("phi3", "o_custkey -> c_address")
	if err != nil {
		panic(err)
	}
	return mustCompile(fd.Compile(datagen.TPCHSchema()))
}

func inMemory(string, int) engine.Config { return engine.Config{Parallelism: parallelism} }

var (
	taxaClean = batchSpec{
		rows: 200_000, instances: 1, smallRows: 2_000, errRate: 0.10,
		gen: datagen.TaxA, rule: phi1, clean: true, config: inMemory,
		oracle: func(rel *model.Relation) int { return fdViolations(rel, 1, 2) },
	}
	taxbDetect = batchSpec{
		rows: 10_000, smallRows: 1_000,
		// One instance's violation count swings by ±15% with the seed (the
		// number and values of its ~200 rate errors); a run times four.
		instances: 4, errRate: 0.02,
		gen: datagen.TaxB, rule: phi2, config: inMemory,
		oracle: func(rel *model.Relation) int { return phi2Violations(rel, 4, 5) },
	}
	tpchSpill = batchSpec{
		rows: 400_000, instances: 1, smallRows: 4_000, errRate: 0.10,
		gen: datagen.TPCH, rule: phi3,
		// The vectorized path under a memory budget below the grouping
		// footprint, so GroupByKey sorts, spills and merges runs. The
		// budget scales with the instance so the small check spills too.
		config: func(work string, n int) engine.Config {
			return engine.Config{
				Parallelism:       parallelism,
				BatchSize:         1024,
				MemoryBudgetBytes: int64(16<<20) * int64(n) / 400_000,
				SpillDir:          work,
			}
		},
		oracle: func(rel *model.Relation) int { return fdViolations(rel, 0, 2) },
	}
)

// batchCall is one timed call's outcome.
type batchCall struct {
	violations int
	remaining  int
	clean      *model.Relation
	result     *core.DetectResult
}

// newCaller builds the context (and cleaner) one call path runs on; obs
// may be nil.
func newCaller(w batchSpec, work string, n int, rs []*core.Rule, obs engine.Observer) (*engine.Context, func(*model.Relation) (batchCall, error)) {
	cfg := w.config(work, n)
	if !w.clean {
		cfg.Observer = obs
	}
	ctx, err := engine.NewContext(cfg)
	if err != nil {
		panic(fmt.Sprintf("perfbench: engine context: %v", err))
	}
	if !w.clean {
		return ctx, func(rel *model.Relation) (batchCall, error) {
			res, err := core.DetectRules(ctx, rs, rel)
			if err != nil {
				return batchCall{}, err
			}
			return batchCall{violations: len(res.Violations), result: res}, nil
		}
	}
	opts := []cleanse.Option{cleanse.WithParallelRepair(repair.Options{Parallelism: parallelism})}
	if obs != nil {
		opts = append(opts, cleanse.WithObserver(obs))
	}
	cl, err := cleanse.NewCleaner(ctx, rs, opts...)
	if err != nil {
		panic(fmt.Sprintf("perfbench: cleaner: %v", err))
	}
	return ctx, func(rel *model.Relation) (batchCall, error) {
		res, err := cl.Clean(rel)
		if err != nil {
			return batchCall{}, err
		}
		rep := res.Report()
		return batchCall{violations: rep.InitialViolations, remaining: rep.RemainingViolations, clean: res.Clean}, nil
	}
}

// instanceSeed derives the seed of a run's i-th input instance.
func instanceSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

func runBatch(r *run, w batchSpec) {
	var (
		trs  []*datagen.Truth
		rs   []*core.Rule
		ctx  *engine.Context
		call func(*model.Relation) (batchCall, error)
	)
	r.values["setup_s"] = setupTimes(setupReps, func() {
		if ctx != nil {
			ctx.Close()
		}
		trs, ctx, call = nil, nil, nil
		for i := 0; i < w.instances; i++ {
			trs = append(trs, w.gen(w.rows, w.errRate, instanceSeed(r.seed, i)))
		}
		rs = []*core.Rule{w.rule()}
		ctx, call = newCaller(w, r.work, w.rows, rs, nil)
	})
	defer ctx.Close()
	oracles := make([]int, len(trs))
	errs := make([]int, len(trs))
	for i, tr := range trs {
		oracles[i], errs[i] = w.oracle(tr.Dirty), len(tr.Errors)
	}
	r.info["rows"] = w.rows
	r.info["instances"] = len(trs)
	r.info["injected_errors"] = errs
	r.info["violations"] = oracles
	spills := w.config(r.work, w.rows).MemoryBudgetBytes > 0

	// A round calls the system once on every instance; its figures are
	// the means per call.
	var rounds, allocs, mallocs, walls, cpus []float64
	var shuffled, spilled []int64
	untraced := func() error {
		var wall, alloc, mall float64
		for i, tr := range trs {
			m0, s0 := readMem(), ctx.Stats().Snapshot()
			c0 := cpuSeconds()
			t0 := time.Now()
			c, err := call(tr.Dirty)
			d := time.Since(t0).Seconds()
			cpus = append(cpus, cpuSeconds()-c0)
			m1, s1 := readMem(), ctx.Stats().Snapshot()
			r.op(err, "batch call")
			if err != nil {
				return err
			}
			walls = append(walls, d)
			wall += d / float64(len(trs))
			alloc += m0.mb(m1) / float64(len(trs))
			mall += m0.k(m1) / float64(len(trs))
			shuffled = append(shuffled, s1.RecordsShuffled-s0.RecordsShuffled)
			spilled = append(spilled, s1.BytesSpilled-s0.BytesSpilled)
			n := len(walls)
			r.check(fmt.Sprintf("call %d violations = oracle", n), c.violations == oracles[i], "%d violations, oracle %d", c.violations, oracles[i])
			if spills {
				r.check(fmt.Sprintf("call %d spilled", n), s1.BytesSpilled > s0.BytesSpilled, "no bytes spilled under the memory budget")
			}
		}
		rounds = append(rounds, wall)
		allocs = append(allocs, alloc)
		mallocs = append(mallocs, mall)
		return nil
	}
	var traced func() error
	var tracedWalls []float64
	var layers layerSum
	if r.trace {
		// Traced rounds alternate with untraced ones, so the two see the
		// same machine state and trace_overhead_ratio compares like with
		// like.
		rec := newRecorder()
		tctx, tcall := newCaller(w, r.work, w.rows, rs, rec)
		defer tctx.Close()
		name := callDetect
		if w.clean {
			name = callClean
		}
		traced = func() error {
			for _, tr := range trs {
				rec.reset()
				d, err := rec.call(name, func() error {
					_, err := tcall(tr.Dirty)
					return err
				})
				r.op(err, "traced batch call")
				if err != nil {
					return err
				}
				tracedWalls = append(tracedWalls, d.Seconds())
				layers.add(rec.layerTotals(), 1)
			}
			return nil
		}
	}

	if !warmUp(r, w, trs[0], oracles[0], call) {
		return
	}

	// Rounds repeat while the next one is expected to end within the
	// measured time.
	budget := time.Duration(r.seconds * float64(time.Second))
	steal0 := stealSeconds()
	start := time.Now()
	for {
		t0 := time.Now()
		if untraced() != nil {
			break
		}
		if traced != nil && traced() != nil {
			break
		}
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	r.info["cpu_steal_s"] = stealSeconds() - steal0
	r.info["cpu_s_each"] = cpus
	if rss, err := peakRSSMB("self"); err == nil {
		r.values["peak_rss_mb"] = rss
	}
	checkSmall(r, w)
	if len(rounds) == 0 {
		return
	}

	wall := median(rounds)
	r.values["wall_s"] = wall
	r.values["alloc_mb"] = median(allocs)
	r.values["mallocs_k"] = median(mallocs)
	r.values["stream_rows_per_s"] = float64(w.rows) / wall
	// A batch call ingests the whole relation and returns its complete
	// result, so it is this workload's ingest.
	r.values["ingest_p50_ms"] = wall * 1000
	r.info["wall_s_each"] = walls
	r.info["engine.shuffle_records_each"] = shuffled
	r.info["spill.bytes_each"] = spilled
	r.info["alloc_mb_rounds"] = allocs
	r.info["mallocs_k_rounds"] = mallocs

	if traced != nil && len(tracedWalls) > 0 {
		layers.store(r)
		for _, k := range []string{"serve.flush_detect_ms", "serve.flush_repair_ms", "serve.flush_other_ms",
			"serve.queue_max", "serve.rejected", "serve.heap_growth_kb_per_flush", "serve.generator_late_ms"} {
			r.values[k] = 0
		}
		r.values["trace_overhead_ratio"] = sum(tracedWalls) / sum(walls[:len(tracedWalls)])
		r.info["traced_wall_s_each"] = tracedWalls
		r.info["core.pairs"] = r.values["core.pairs"]
	}
}

// warmUp makes one untimed first call, which grows the heap to its working
// size, and scores its output.
func warmUp(r *run, w batchSpec, tr *datagen.Truth, oracle int, call func(*model.Relation) (batchCall, error)) bool {
	c, err := call(tr.Dirty)
	r.op(err, "warm-up call")
	if err != nil {
		return false
	}
	r.check("warm-up violations = oracle", c.violations == oracle, "%d violations, oracle %d", c.violations, oracle)
	if w.clean {
		left := w.oracle(c.clean)
		r.check("cleaned relation re-detects to 0", c.remaining == 0 && left == 0, "%d remaining, oracle %d", c.remaining, left)
		q := datagen.Evaluate(tr, c.clean)
		r.values["repair_precision"], r.values["repair_recall"] = q.Precision, q.Recall
	} else {
		r.values["repair_precision"], r.values["repair_recall"] = detectionQuality(tr, c.result.Violations)
	}
	return true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// checkSmall runs the same call path on a down-scaled instance from the
// same generator and seed and compares it with the brute-force oracle.
func checkSmall(r *run, w batchSpec) {
	tr := w.gen(w.smallRows, w.errRate, r.seed)
	rule := w.rule()
	ctx, call := newCaller(w, r.work, w.smallRows, []*core.Rule{rule}, nil)
	defer ctx.Close()
	c, err := call(tr.Dirty)
	r.op(err, "down-scaled call")
	if err != nil {
		return
	}
	want := bruteForce(rule, tr.Dirty)
	r.check("down-scaled violations = brute force", c.violations == want, "%d violations, brute force %d", c.violations, want)
	if w.clean {
		left := bruteForce(rule, c.clean)
		r.check("down-scaled clean re-detects to 0 by brute force", left == 0 && c.remaining == 0, "brute force finds %d", left)
	}
	if w.config(r.work, w.smallRows).MemoryBudgetBytes > 0 {
		r.check("down-scaled call spilled", ctx.Stats().Snapshot().BytesSpilled > 0, "no bytes spilled")
	}
}
