package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// This file is the vectorized half of the dataflow executor: when the
// engine context configures a batch size and a pipeline carries vectorized
// operator forms (VecForms), the Scope→Detect chain runs over model.Batch
// column vectors — the Scope kernel flips selection bits on flat []Value
// slices, blocked rules materialize tuples only at the shuffle boundary,
// and the per-block Detect kernel (which the tuple path runs too, see
// blockKernel) judges each grouped block. Everything downstream (violation
// dedup, GenFix, collection) is shared with the tuple path, and pipelines
// the vectorized executor does not support fall back to it transparently.

// vecEligible reports whether a pipeline can run on the batch path: a
// batch size is configured, vectorized forms exist, and the pipeline is a
// single-branch base scan whose shape the vectorized executor supports —
// unary rules with a batch Detect, or blocked pair rules with a block
// Detect. Derived streams, CoBlock, OCJoin, custom Iterates, unblocked
// cross products and transforming or chained Scopes all fall back.
func (ex *sparkExec) vecEligible(p *PhysicalPipeline) bool {
	if ex.batchSize <= 0 || p.Vec == nil || p.Broadcast || len(p.Branches) != 1 {
		return false
	}
	b := p.Branches[0]
	if b.Derived != nil {
		return false
	}
	if len(b.Scopes) > 1 || (len(b.Scopes) == 1 && p.Vec.Scope == nil) {
		return false
	}
	if p.Impl == IterSingles {
		return p.Vec.DetectBatch != nil
	}
	return blockKernel(p) != nil
}

// batchKey identifies one chunked materialization of a relation: cols is the
// canonical key of the column set transposed into vectors ("*" when the
// pipeline needs every column, "" when it reads rows only through TupleAt).
// Keying the cache by column set keeps pipelines with different vector needs
// from seeing each other's partially materialized batches.
type batchKey struct {
	rel  *model.Relation
	cols string
}

// vecScanCols decides which column vectors the chunker must materialize for
// a pipeline: the rule's declared ScanCols plus the block column when the
// key is a single column read. Shapes that run batch kernels (a vectorized
// Scope, or a unary batch Detect) without a ScanCols declaration
// conservatively get every column.
func vecScanCols(p *PhysicalPipeline, vscope func(*model.Batch) *model.Batch) (cols []int, all bool) {
	if (vscope != nil || p.Impl == IterSingles) && p.Vec.ScanCols == nil {
		return nil, true
	}
	cols = append(cols, p.Vec.ScanCols...)
	if p.Impl != IterSingles && p.Vec.BlockCol >= 0 {
		cols = append(cols, p.Vec.BlockCol)
	}
	return cols, false
}

// colsKey canonicalizes a materialization request (sorted, deduplicated)
// into a batchKey string.
func colsKey(cols []int, all bool) string {
	if all {
		return "*"
	}
	s := append([]int(nil), cols...)
	sort.Ints(s)
	var sb strings.Builder
	for i, c := range s {
		if i > 0 && c == s[i-1] {
			continue
		}
		fmt.Fprintf(&sb, "%d,", c)
	}
	return sb.String()
}

// batchedStream materializes a branch's scoped column-batch stream,
// mirroring branchStream: the base relation is chunked into batches once
// per executor (zero-copy when the relation arrived as pre-built storage
// batches), the vectorized Scope runs as one fused FilterBatches stage, and
// the scoped stream is cached under the same scan key the tuple path uses,
// so pipelines sharing a consolidated scan share the scoped batches too.
// needCols narrows which column vectors the in-memory chunker transposes
// (all of them when allCols is set); pre-built storage batches always arrive
// with every column.
func (ex *sparkExec) batchedStream(pp *PhysicalPlan, b Branch, vscope func(*model.Batch) *model.Batch, needCols []int, allCols bool) (*engine.Dataset[*model.Batch], error) {
	rel, ok := pp.Logical.Inputs[b.Dataset]
	if !ok {
		return nil, fmt.Errorf("core: plan %s references unknown dataset %q", pp.Name, b.Dataset)
	}
	key := scanKey{rel: rel}
	for i, s := range b.Scopes {
		if i >= len(key.scopes) {
			break
		}
		key.scopes[i] = reflect.ValueOf(s).Pointer()
	}
	if vscope != nil {
		if d, ok := ex.scopedVec[key]; ok {
			return d, nil
		}
	}
	bkey := batchKey{rel: rel, cols: colsKey(needCols, allCols)}
	base, ok := ex.batched[bkey]
	if !ok {
		var bs []*model.Batch
		if pre := ex.pre[rel]; len(pre) > 0 {
			bs = rechunk(pre, ex.batchSize)
		} else if allCols {
			bs = model.MakeBatches(rel.Tuples, rel.Schema.Len(), ex.batchSize)
		} else {
			bs = model.MakeBatchesCols(rel.Tuples, rel.Schema.Len(), ex.batchSize, needCols...)
		}
		base = engine.Parallelize(ex.ctx, bs, 0)
		ex.batched[bkey] = base
	}
	if vscope == nil {
		return base, nil
	}
	d := engine.FilterBatches(base, vscope)
	// Force like the tuple path does: the scope kernel runs here as one
	// fused stage and the scoped batches are cached for reuse.
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: Scope failed: %w", err)
	}
	ex.scopedVec[key] = d
	return d, nil
}

// vecViolations builds a pipeline's violation stream on the batch path.
// Unary rules flat-map the batch Detect kernel straight over the scoped
// batches — no tuple is ever materialized. Blocked pair rules materialize
// each live row into a keyed pair only at the shuffle boundary (reading the
// block key from its column vector when BlockCol names one), group, and
// run the block kernel per group; grouping order and within-group row
// order match the tuple path, so the violations come out in the same order.
func (ex *sparkExec) vecViolations(pp *PhysicalPlan, p *PhysicalPipeline,
	detectBatch func(*model.Batch) []model.Violation,
	detectBlock func([]model.Tuple, bool) []model.Violation,
) (*engine.Dataset[model.Violation], error) {
	b := p.Branches[0]
	var vscope func(*model.Batch) *model.Batch
	if len(b.Scopes) == 1 {
		vscope = p.Vec.Scope
	}
	// Materialize only the vectors this pipeline's kernels scan (ScanCols
	// plus the block column); everything else reads through the row backing.
	// Undeclared kernel shapes conservatively get every column.
	needCols, allCols := vecScanCols(p, vscope)
	src, err := ex.batchedStream(pp, b, vscope, needCols, allCols)
	if err != nil {
		return nil, err
	}
	if p.Impl == IterSingles {
		return engine.FlatMapBatches(src, detectBatch), nil
	}
	block := b.Block
	blockCol := p.Vec.BlockCol
	keyed := engine.FlatMapBatches(src, func(bt *model.Batch) []engine.Pair[model.ValueKey, model.Tuple] {
		out := make([]engine.Pair[model.ValueKey, model.Tuple], 0, bt.LiveRows())
		var col []model.Value
		if blockCol >= 0 && blockCol < len(bt.Cols) {
			col = bt.Cols[blockCol] // nil if this batch never transposed it
		}
		bt.ForEachLive(func(r int) {
			var k model.ValueKey
			if col != nil {
				k = col[r].MapKey()
			} else {
				k = block(bt.TupleAt(r)).MapKey()
			}
			out = append(out, engine.Pair[model.ValueKey, model.Tuple]{Key: k, Value: bt.TupleAt(r)})
		})
		return out
	})
	grouped := engine.GroupByKey(keyed)
	ordered := p.Impl == IterOrderedPairs
	return engine.FlatMap(grouped, func(g engine.Pair[model.ValueKey, []model.Tuple]) []model.Violation {
		return detectBlock(g.Value, ordered)
	}), nil
}

// rechunk re-windows pre-built batches (typically one per storage
// partition) into batches of at most size rows. Windows share the
// originals' column vectors — no value is copied.
func rechunk(pre []*model.Batch, size int) []*model.Batch {
	out := make([]*model.Batch, 0, len(pre))
	for _, b := range pre {
		n := b.Len()
		switch {
		case n == 0:
			// skip
		case n <= size:
			out = append(out, b)
		default:
			for lo := 0; lo < n; lo += size {
				hi := lo + size
				if hi > n {
					hi = n
				}
				out = append(out, b.Slice(lo, hi))
			}
		}
	}
	return out
}

// DetectRuleOnBatches plans and runs one rule over a relation whose data
// arrives as pre-built column batches — the storage batch reader's output.
// The batch path consumes the batches zero-copy; if the rule is not
// vectorizable (or no batch size is configured) the tuples are materialized
// once and the tuple path runs, so the result is identical either way.
// rel carries the schema and name; its Tuples may be empty.
func DetectRuleOnBatches(ctx *engine.Context, r *Rule, rel *model.Relation, batches []*model.Batch) (*DetectResult, error) {
	pp, err := compilePlan(ctx, nil, func() (*LogicalPlan, error) { return PlanRule(r, rel) })
	if err != nil {
		return nil, err
	}
	ex := newSparkExec(ctx)
	ex.pre[rel] = batches
	return ex.run(pp)
}
