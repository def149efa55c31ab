package core

import (
	"fmt"

	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
)

// RunPlanMapReduce executes the physical plan's detection pipelines on the
// disk-based MapReduce backend (Appendix G.2's translation): PScope runs in
// the map function, PBlock becomes the shuffle partitioner, PIterate and
// PDetect run in the reduce function, and PGenFix runs on the reducer's
// violations. Each pipeline is one MapReduce job; fix sets travel between
// phases in the binary codec.
//
// Like the paper's BigDansing-Hadoop, the backend covers blocking-based
// rules; ordering-comparison rules (OCJoin) are only supported by the
// dataflow backend and return an error here.
func RunPlanMapReduce(eng *mapred.Engine, pp *PhysicalPlan, nSplits, nReduce int) (*DetectResult, error) {
	result := &DetectResult{}
	for i := range pp.Pipelines {
		if err := runPipelineMR(eng, pp, &pp.Pipelines[i], nSplits, nReduce, result); err != nil {
			return nil, err
		}
	}
	dedupeResult(result)
	return result, nil
}

func runPipelineMR(eng *mapred.Engine, pp *PhysicalPlan, p *PhysicalPipeline, nSplits, nReduce int, out *DetectResult) error {
	if p.Impl == IterOCJoin {
		return fmt.Errorf("core: pipeline %s: OCJoin is not supported on the MapReduce backend", p.RuleID)
	}
	if p.Broadcast {
		return fmt.Errorf("core: pipeline %s: broadcast plans are not supported on the MapReduce backend", p.RuleID)
	}
	if len(p.Branches) > 2 {
		return fmt.Errorf("core: pipeline %s: MapReduce backend supports at most two branches", p.RuleID)
	}

	// Encode input records: branchTag:uint8 tuple. Branches over the same
	// dataset are emitted per tag so the reducer can rebuild the bags.
	var input [][]byte
	for tag, b := range p.Branches {
		rel, ok := pp.Logical.Inputs[b.Dataset]
		if !ok {
			return fmt.Errorf("core: plan %s references unknown dataset %q", pp.Name, b.Dataset)
		}
		for _, t := range rel.Tuples {
			rec := append([]byte{byte(tag)}, model.EncodeTuple(t)...)
			input = append(input, rec)
		}
	}

	branches := p.Branches
	mapFn := func(rec []byte, emit mapred.Emit) {
		tag := int(rec[0])
		t, _, err := model.DecodeTuple(rec[1:])
		if err != nil {
			panic(fmt.Sprintf("decode input tuple: %v", err))
		}
		b := branches[tag]
		units := []model.Tuple{t}
		for _, s := range b.Scopes {
			var next []model.Tuple
			for _, u := range units {
				next = append(next, s(u)...)
			}
			units = next
		}
		// Serialization boundary: the disk-based MR engine shuffles string
		// keys by design, so the block value is rendered once per record
		// here — the in-memory backend never does (it groups on MapKey).
		key := ""
		for _, u := range units {
			if b.Block != nil {
				key = b.Block(u).Key()
			}
			emit(key, append([]byte{byte(tag)}, model.EncodeTuple(u)...))
		}
	}

	detect, genfix, iterate := p.Detect, p.GenFix, p.Iterate
	kernel := blockKernel(p)
	impl := p.Impl
	nBranches := len(p.Branches)
	reduceFn := func(key string, values [][]byte, emit func([]byte)) {
		bags := make([][]model.Tuple, nBranches)
		for _, v := range values {
			tag := int(v[0])
			t, _, err := model.DecodeTuple(v[1:])
			if err != nil {
				panic(fmt.Sprintf("decode shuffled tuple: %v", err))
			}
			bags[tag] = append(bags[tag], t)
		}
		emitAll := func(vs []model.Violation) {
			for _, v := range vs {
				fs := model.FixSet{Violation: v}
				if genfix != nil {
					fs.Fixes = genfix(v)
				}
				emit(model.EncodeFixSet(fs))
			}
		}
		if kernel != nil {
			emitAll(kernel(bags[0], impl == IterOrderedPairs))
			return
		}
		var items []Item
		switch impl {
		case IterSingles:
			items = Singles(bags)
		case IterUniquePairs:
			items = PairsUnique(bags)
		case IterOrderedPairs:
			items = PairsOrdered(bags)
		case IterCoBlockPairs:
			items = PairsAcross(bags)
		case IterCustom:
			items = iterate(bags)
		}
		for _, it := range items {
			emitAll(detect(it))
		}
	}

	outRecs, err := eng.Run(input, nSplits, nReduce, mapFn, reduceFn)
	if err != nil {
		return fmt.Errorf("core: MapReduce job for %s: %w", p.RuleID, err)
	}
	for _, rec := range outRecs {
		fs, err := model.DecodeFixSet(rec)
		if err != nil {
			return fmt.Errorf("core: decode fix set from %s: %w", p.RuleID, err)
		}
		out.Violations = append(out.Violations, fs.Violation)
		out.FixSets = append(out.FixSets, fs)
	}
	return nil
}

// DetectRuleMapReduce plans, optimizes and runs one rule on the MapReduce
// backend.
func DetectRuleMapReduce(eng *mapred.Engine, r *Rule, rel *model.Relation, nSplits, nReduce int) (*DetectResult, error) {
	lp, err := PlanRule(r, rel)
	if err != nil {
		return nil, err
	}
	pp, err := NewPlanner().Plan(lp)
	if err != nil {
		return nil, err
	}
	return RunPlanMapReduce(eng, pp, nSplits, nReduce)
}
