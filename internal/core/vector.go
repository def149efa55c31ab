package core

import "bigdansing/internal/model"

// VecForms holds the vectorized (batch-at-a-time) forms of a rule's
// operators. A declarative front end that compiles a rule (package rules)
// can attach them to Rule.Vec; the executor then runs the rule's eligible
// Scope→Detect chain over model.Batch column vectors instead of
// tuple-at-a-time closures whenever the engine context configures a batch
// size.
//
// Every form is optional and every form must be observationally identical
// to its tuple counterpart — the same violations emitted in the same order
// — because equivalence (identical violations, hence identical repairs) is
// the contract every path is tested against. A pipeline whose shape the
// vectorized executor does not support (CoBlock, OCJoin, custom Iterate,
// derived streams, multi-branch) silently runs on the tuple path even when
// forms are present; DetectBlock alone is used on every path.
type VecForms struct {
	// Scope is the vectorized Scope kernel: it narrows a batch by flipping
	// selection bits (on a private CloneSel copy — the input batch may be
	// shared) and returns the narrowed batch. It must select exactly the
	// rows the tuple ScopeFunc passes through; drop-only — a vectorized
	// Scope cannot rewrite values or emit extra rows, which is why rules
	// with transforming Scopes leave this nil and fall back.
	Scope func(*model.Batch) *model.Batch

	// ScanCols lists the columns the batch kernels (Scope, DetectBatch)
	// read, letting the executor materialize exactly those vectors when it
	// chunks an in-memory relation — the rest of the schema is never
	// transposed and reads through the row backing. The listed columns are
	// guaranteed present in Batch.Cols; kernels touching any column not
	// listed must read it through Batch.Value (which falls back to the rows)
	// rather than indexing Cols directly. nil means undeclared: the executor
	// conservatively materializes every column for shapes that run batch
	// kernels. DetectBlock reads through the block's tuples and needs no
	// entry here.
	ScanCols []int

	// BlockCol, when >= 0, names the column whose value is the Block key,
	// letting the blocked path read the key straight out of the column
	// vector. -1 means the key is not a single column read; the executor
	// then calls the tuple BlockFunc on the materialized row.
	BlockCol int

	// DetectBatch is the vectorized Detect of a unary rule: one call scans
	// a whole batch and returns the violations of its live rows, in row
	// order (the order the tuple path's Singles enumeration produces).
	DetectBatch func(*model.Batch) []model.Violation

	// DetectBlock is the Detect kernel over one block of a pair rule. Every
	// executor calls it once per block of a blocked single-branch pair
	// pipeline (planner-chosen unique or ordered pairs) instead of building
	// a candidate Item per pair: the tuple and vectorized dataflow paths,
	// the broadcast variant and the MapReduce reducer. It receives the
	// block's tuples in grouping order and must emit exactly what the tuple
	// Detect emits over the pairs in PairsUnique order (i<j) when ordered is
	// false, PairsOrdered order (all i≠j, outer i, inner j) when true. It
	// is free to skip pairs it can prove clean without visiting them.
	DetectBlock func(us []model.Tuple, ordered bool) []model.Violation
}

// blockKernel returns the Detect kernel a pipeline runs once per block: the
// rule's DetectBlock when the pipeline is a blocked single-branch unique or
// ordered pair enumeration, nil otherwise (Items are built only then).
func blockKernel(p *PhysicalPipeline) func([]model.Tuple, bool) []model.Violation {
	if p.Vec == nil || len(p.Branches) != 1 || p.Branches[0].Block == nil {
		return nil
	}
	switch p.Impl {
	case IterUniquePairs, IterOrderedPairs:
		return p.Vec.DetectBlock
	default:
		return nil
	}
}

// blockPairs is the number of candidate pairs a block of n units stands
// for: n(n-1)/2 unique pairs, or n(n-1) ordered ones.
func blockPairs(n int, ordered bool) int64 {
	pairs := int64(n) * int64(n-1)
	if !ordered {
		pairs /= 2
	}
	return pairs
}
