// Package rules translates declarative quality rules — functional
// dependencies (FDs), conditional functional dependencies (CFDs) and denial
// constraints (DCs) — into BigDansing jobs built from the five logical
// operators, deriving the optimization hints (blocking keys, symmetry,
// ordering conditions) the physical planner exploits. It also ships the
// UDF-style rules of the evaluation: Levenshtein deduplication (φ4/φ5) and
// the similarity-plus-mapping rule φU of Example 1.
package rules

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
)

// FD is a functional dependency LHS -> RHS: tuples agreeing on every LHS
// attribute must agree on every RHS attribute.
type FD struct {
	ID  string
	LHS []string
	RHS []string
}

// ParseFD parses "zipcode -> city" or "providerID -> city, phone".
func ParseFD(id, spec string) (*FD, error) {
	lhsRaw, rhsRaw, ok := strings.Cut(spec, "->")
	if !ok {
		return nil, fmt.Errorf("rules: FD %s: missing '->' in %q", id, spec)
	}
	split := func(s string) []string {
		var out []string
		for _, p := range strings.Split(s, ",") {
			p = strings.TrimSpace(p)
			if p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	fd := &FD{ID: id, LHS: split(lhsRaw), RHS: split(rhsRaw)}
	if len(fd.LHS) == 0 || len(fd.RHS) == 0 {
		return nil, fmt.Errorf("rules: FD %s: empty side in %q", id, spec)
	}
	return fd, nil
}

// String renders the FD.
func (fd *FD) String() string {
	return fmt.Sprintf("%s: %s -> %s", fd.ID, strings.Join(fd.LHS, ","), strings.Join(fd.RHS, ","))
}

// Compile translates the FD into a rule over the given schema — the
// automatic job generation of Section 3.1. The generated operators mirror
// Listings 1, 2, 5 and 6:
//
//	Block   keys on the LHS values (Scope is logically a projection to
//	        LHS ∪ RHS; physically it is pushed down to the storage layer,
//	        see package storage, so cells keep their base-table columns),
//	Iterate defaults to unique pairs (FD detection is symmetric),
//	Detect  reports pairs agreeing on the LHS but disagreeing on some RHS
//	        attribute — the LHS check makes Detect self-contained, so the
//	        rule stays correct even when run Detect-only (Figure 12(a)),
//	GenFix  proposes equating the two RHS values.
func (fd *FD) Compile(schema *model.Schema) (*core.Rule, error) {
	lhsIdx, err := resolveAttrs(schema, fd.LHS)
	if err != nil {
		return nil, fmt.Errorf("rules: FD %s: %w", fd.ID, err)
	}
	rhsIdx, err := resolveAttrs(schema, fd.RHS)
	if err != nil {
		return nil, fmt.Errorf("rules: FD %s: %w", fd.ID, err)
	}
	rhsNames := make([]string, len(rhsIdx))
	for i, c := range rhsIdx {
		rhsNames[i] = schema.Name(c)
	}
	ruleID := fd.ID
	blockAttr := ""
	if len(lhsIdx) == 1 {
		blockAttr = schema.Name(lhsIdx[0])
	}

	rule := &core.Rule{
		ID:        ruleID,
		BlockAttr: blockAttr,
		Block: func(t model.Tuple) model.Value {
			// Single-attribute LHS (the common case): the cell value itself
			// is the block key — no per-record string is built.
			if len(lhsIdx) == 1 {
				return t.Cell(lhsIdx[0])
			}
			return compositeKey(t, lhsIdx)
		},
		Symmetric: true,
		Detect: func(it core.Item) []model.Violation {
			l, r := it.Left(), it.Right()
			for _, c := range lhsIdx {
				if !l.Cell(c).Equal(r.Cell(c)) {
					return nil
				}
			}
			var out []model.Violation
			for i, c := range rhsIdx {
				lv, rv := l.Cell(c), r.Cell(c)
				if lv.Equal(rv) {
					continue
				}
				v := model.NewViolation(ruleID,
					model.NewCell(l.ID, c, rhsNames[i], lv),
					model.NewCell(r.ID, c, rhsNames[i], rv),
				)
				out = append(out, v)
			}
			return out
		},
		GenFix: func(v model.Violation) []model.Fix {
			if len(v.Cells) < 2 {
				return nil
			}
			return []model.Fix{model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1])}
		},
	}
	if len(lhsIdx) > 1 {
		// Each single LHS attribute is a coarser — but still correct —
		// block key: Detect re-checks the full LHS per pair, so blocking on
		// any one LHS column surfaces every violation the composite key
		// does. The cost planner may pick one when the composite key is
		// heavily skewed or its key strings dominate the shuffle.
		for _, c := range lhsIdx {
			col := c
			rule.AltBlocks = append(rule.AltBlocks, func(t model.Tuple) model.Value {
				return t.Cell(col)
			})
			rule.AltBlockAttrs = append(rule.AltBlockAttrs, schema.Name(col))
		}
	}
	rule.Vec = fdVecForms(ruleID, lhsIdx, rhsIdx, rhsNames)
	return rule, nil
}

// fdVecForms builds the FD's per-block Detect kernel. Every executor runs
// it once per block of a blocked FD pipeline — the tuple and vectorized
// dataflow paths, the broadcast variant and the MapReduce reducer — so no
// candidate-pair Item is built. A block whose RHS columns each hold one
// value (the common clean block) costs one O(n) pass and no allocation.
// Otherwise the kernel labels each tuple with its class per non-uniform
// column: bit-identical values share a class, so −0 and +0 stay apart (they
// render differently against strings, which MapKey would hide). Whether two
// classes conflict is decided by Value.Equal on one representative each —
// never by merging classes, because Equal is not transitive (NaN equals
// every number). Pair enumeration then compares integer labels and emits
// only the pairs whose classes conflict. A single-attribute LHS blocks on
// the LHS value itself, so every pair in the block already agrees on it; a
// composite LHS blocks on a joined key string that can collide across
// kinds, so its LHS columns are labelled too and re-checked per pair.
// Violations and their order match the per-pair Detect exactly.
func fdVecForms(ruleID string, lhsIdx, rhsIdx []int, rhsNames []string) *core.VecForms {
	vec := &core.VecForms{BlockCol: -1}
	// cols are the columns the kernel compares: the RHS, then the LHS when
	// it is composite.
	cols := append([]int(nil), rhsIdx...)
	if len(lhsIdx) == 1 {
		vec.BlockCol = lhsIdx[0]
	} else {
		cols = append(cols, lhsIdx...)
	}
	vec.DetectBlock = func(us []model.Tuple, ordered bool) []model.Violation {
		if len(us) < 2 || allUniform(us, rhsIdx) {
			return nil
		}
		s := fdScratchPool.Get().(*fdScratch)
		defer fdScratchPool.Put(s)
		s.label(us, cols, len(rhsIdx))
		s.conflictingPairs(len(us), ordered)
		return s.violations(ruleID, us, rhsIdx, rhsNames)
	}
	return vec
}

// fdClass is the bit identity of a cell value: the FD kernel's class key.
type fdClass struct {
	kind model.Kind
	str  string
	num  int64
	bits uint64
}

func classOf(v model.Value) fdClass {
	return fdClass{kind: v.Kind, str: v.Str, num: v.Int, bits: math.Float64bits(v.Flt)}
}

// allUniform reports whether every listed column holds one bit-identical
// value across the block. Bit-identical values are always Equal, so such
// a block has no violation on those columns.
func allUniform(us []model.Tuple, cols []int) bool {
	for _, c := range cols {
		if !uniform(us, c) {
			return false
		}
	}
	return true
}

func uniform(us []model.Tuple, c int) bool {
	first := classOf(us[0].Cell(c))
	for _, t := range us[1:] {
		if classOf(t.Cell(c)) != first {
			return false
		}
	}
	return true
}

// fdColumn is one non-uniform compared column of a block: each tuple's
// class label and one representative value per class.
type fdColumn struct {
	// rhs is the column's RHS position (RHS columns only).
	rhs  int
	lab  []int32
	reps []model.Value
}

// conflict reports whether tuples i and j disagree on the column.
func (c *fdColumn) conflict(i, j int) bool {
	a, b := c.lab[i], c.lab[j]
	return a != b && !c.reps[a].Equal(c.reps[b])
}

// fdScratch is the FD kernel's reusable per-block working memory, pooled so
// that a block with violations allocates only its output.
type fdScratch struct {
	ids    map[fdClass]int32
	labels []int32
	reps   []model.Value
	// rhs and lhs are the block's non-uniform RHS and LHS columns, RHS in
	// attribute order.
	rhs, lhs []fdColumn
	// hits holds an (i, j, rhs position) triple per violation, in emission
	// order.
	hits []int32
}

// maxPooledClasses bounds the class map a pooled scratch keeps.
const maxPooledClasses = 1024

var fdScratchPool = sync.Pool{New: func() any {
	return &fdScratch{ids: make(map[fdClass]int32)}
}}

// label classifies the block's tuples on every non-uniform column of cols,
// whose first nr entries are RHS columns.
func (s *fdScratch) label(us []model.Tuple, cols []int, nr int) {
	n := len(us)
	// Size both buffers for the worst case up front so the column views
	// taken below stay valid while later columns append.
	if need := len(cols) * n; cap(s.labels) < need {
		s.labels = make([]int32, 0, need)
		s.reps = make([]model.Value, 0, need)
	}
	s.labels, s.reps = s.labels[:0], s.reps[:0]
	s.rhs, s.lhs = s.rhs[:0], s.lhs[:0]
	for x, c := range cols {
		if uniform(us, c) {
			continue
		}
		// Clearing a map costs its capacity, not its length: replace one a
		// large block grew, so later small blocks do not pay for it.
		if len(s.ids) > maxPooledClasses {
			s.ids = make(map[fdClass]int32)
		} else {
			clear(s.ids)
		}
		lo, rlo := len(s.labels), len(s.reps)
		for _, t := range us {
			v := t.Cell(c)
			k := classOf(v)
			id, ok := s.ids[k]
			if !ok {
				id = int32(len(s.reps) - rlo)
				s.ids[k] = id
				s.reps = append(s.reps, v)
			}
			s.labels = append(s.labels, id)
		}
		col := fdColumn{rhs: x, lab: s.labels[lo:], reps: s.reps[rlo:]}
		if x < nr {
			s.rhs = append(s.rhs, col)
		} else {
			s.lhs = append(s.lhs, col)
		}
	}
}

// conflictingPairs records, in the per-pair enumeration order (i<j, or
// every i≠j when ordered), each pair that agrees on the LHS and conflicts
// on an RHS column.
func (s *fdScratch) conflictingPairs(n int, ordered bool) {
	hits := s.hits[:0]
	for i := 0; i < n; i++ {
		j := i + 1
		if ordered {
			j = 0
		}
	pairs:
		for ; j < n; j++ {
			if j == i {
				continue
			}
			for x := range s.lhs {
				if s.lhs[x].conflict(i, j) {
					continue pairs
				}
			}
			for x := range s.rhs {
				if s.rhs[x].conflict(i, j) {
					hits = append(hits, int32(i), int32(j), int32(s.rhs[x].rhs))
				}
			}
		}
	}
	s.hits = hits
}

// violations materializes the recorded hits: one allocation for the
// violations and one for all their cells.
func (s *fdScratch) violations(ruleID string, us []model.Tuple, rhsIdx []int, rhsNames []string) []model.Violation {
	k := len(s.hits) / 3
	if k == 0 {
		return nil
	}
	out := make([]model.Violation, k)
	cells := make([]model.Cell, 2*k)
	for h := range out {
		l, r, y := us[s.hits[3*h]], us[s.hits[3*h+1]], int(s.hits[3*h+2])
		c := rhsIdx[y]
		cs := cells[2*h : 2*h+2 : 2*h+2]
		cs[0] = model.NewCell(l.ID, c, rhsNames[y], l.Cell(c))
		cs[1] = model.NewCell(r.ID, c, rhsNames[y], r.Cell(c))
		out[h] = model.NewViolation(ruleID, cs...)
	}
	return out
}

// compositeKey renders a multi-attribute blocking key into one string
// value: kind-tagged cell keys joined with a separator, so composite blocks
// stay distinct across kinds. Single-attribute blocks should return the
// cell value directly instead and skip the allocation.
func compositeKey(t model.Tuple, cols []int) model.Value {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(t.Cell(c).Key())
	}
	return model.S(b.String())
}

// resolveAttrs maps attribute names to column indexes.
func resolveAttrs(schema *model.Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		c, ok := schema.Index(n)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q (schema: %s)", n, schema)
		}
		out[i] = c
	}
	return out, nil
}
