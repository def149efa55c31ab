package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bigdansing/internal/engine"
)

// recorder is the benchmark's own engine.Observer. It keeps every span of
// the traced calls in memory and folds them into per-layer self times and
// counts afterwards (layerTotals). Nesting follows the engine's contract:
// a nil parent means the innermost open span begun with a nil parent.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*spanRec
	scope []*spanRec

	counts [engine.NumMetrics]atomic.Int64
}

type spanRec struct {
	id, parent int
	name       string
	kind       engine.SpanKind
	start, end time.Duration
	attrs      [engine.NumAttrs]int64
	scoped     bool
	ended      atomic.Bool
	r          *recorder
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// reset drops the recorded spans; call it only between traced calls.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans, r.scope = nil, nil
	r.mu.Unlock()
	for i := range r.counts {
		r.counts[i].Store(0)
	}
}

func (r *recorder) BeginSpan(parent engine.Span, name string, kind engine.SpanKind) engine.Span {
	start := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &spanRec{id: len(r.spans), parent: -1, name: name, kind: kind, start: start, r: r}
	if p, ok := parent.(*spanRec); ok && p != nil {
		s.parent = p.id
	} else {
		if n := len(r.scope); n > 0 {
			s.parent = r.scope[n-1].id
		}
		s.scoped = true
		r.scope = append(r.scope, s)
	}
	r.spans = append(r.spans, s)
	return s
}

func (r *recorder) Count(m engine.Metric, v int64) {
	if m >= engine.NumMetrics {
		return
	}
	c := &r.counts[m]
	if m == engine.MetricPeakReservedBytes {
		for {
			cur := c.Load()
			if v <= cur || c.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	c.Add(v)
}

func (s *spanRec) Attr(k engine.Attr, v int64) {
	if k < engine.NumAttrs && !s.ended.Load() {
		s.attrs[k] = v
	}
}

func (s *spanRec) End() {
	if !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.end = time.Since(s.r.epoch)
	if !s.scoped {
		return
	}
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.scope) - 1; i >= 0; i-- {
		if r.scope[i] == s {
			r.scope = r.scope[:i]
			return
		}
	}
}

// Call kinds: the benchmark wraps each public call it times in a root span
// of its own, so the time no layer's span covers is measured too.
const (
	callDetect = "call:DetectRules"
	callClean  = "call:Clean"
	callIngest = "call:Ingest"
	callFlush  = "call:Flush"
)

// call runs f inside a benchmark root span and returns its wall time.
func (r *recorder) call(name string, f func() error) (time.Duration, error) {
	sp := r.BeginSpan(nil, name, engine.SpanRun)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.End()
	return d, err
}

// Layer time buckets. Each span's self time (its duration minus the time
// its children in other layers cover) lands in exactly one bucket, so the
// buckets add up to the traced wall time of the calls.
const (
	lPlan         = "core.plan_ms"
	lScan         = "engine.scan_ms"
	lShuffle      = "engine.shuffle_ms"
	lGroup        = "engine.group_ms"
	lDetect       = "core.detect_ms"
	lPipeline     = "core.pipeline_self_ms"
	lCollect      = "core.collect_dedup_ms"
	lSpill        = "spill.ms"
	lComponents   = "repair.components_ms"
	lInstances    = "repair.instances_ms"
	lRepairOther  = "repair.other_ms"
	lRound        = "cleanse.round_self_ms"
	lUnattributed = "unattributed_ms"
)

var timeBuckets = []string{lPlan, lScan, lShuffle, lGroup, lDetect, lPipeline, lCollect, lSpill, lComponents, lInstances, lRepairOther, lRound, lUnattributed}

// stageLayer classifies an engine stage by name. Wide stages (exchanges,
// grouping, out-of-core passes) name themselves; a narrow fused stage is
// the scan before a pipeline's first wide stage and the fused
// Iterate·Detect·GenFix chain after it.
func stageLayer(name string, afterWide bool) (layer string, wide bool) {
	switch {
	case strings.HasSuffix(name, ":spill") || strings.HasSuffix(name, ":merge"):
		return lSpill, true
	case strings.HasPrefix(name, "shuffle:") || strings.HasPrefix(name, "rangePartition:") ||
		strings.HasPrefix(name, "cartesian:") || strings.HasSuffix(name, ":encode") || strings.HasSuffix(name, ":decode"):
		return lShuffle, true
	case name == "groupByKey" || name == "coGroup":
		return lGroup, true
	case afterWide:
		return lDetect, false
	default:
		return lScan, false
	}
}

func isGroupStage(name string) bool {
	return name == "groupByKey" || name == "groupByKey:merge" || name == "coGroup"
}

type interval struct{ a, b time.Duration }

func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.a > cur.b {
			total += cur.b - cur.a
			cur = iv
			continue
		}
		if iv.b > cur.b {
			cur.b = iv.b
		}
	}
	return total + cur.b - cur.a
}

// layerTotals folds the recorded spans into the per-layer metrics (times
// in ms, counts) of the calls recorded since the last reset.
func (r *recorder) layerTotals() map[string]float64 {
	r.mu.Lock()
	spans := append([]*spanRec(nil), r.spans...)
	r.mu.Unlock()

	children := make([][]int, len(spans))
	var roots []int
	for _, s := range spans {
		if s.parent < 0 {
			roots = append(roots, s.id)
		} else {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	out := map[string]float64{}
	for _, b := range timeBuckets {
		out[b] = 0
	}

	type kid struct {
		id    int
		layer string
	}
	// childLayer assigns a child span its layer; wide tracks whether the
	// parent pipeline has passed its first wide stage.
	childLayer := func(parent *spanRec, parentLayer string, c *spanRec, wide *bool) string {
		switch c.kind {
		case engine.SpanStage:
			l, w := stageLayer(c.name, *wide && parent.kind == engine.SpanPipeline)
			if w {
				*wide = true
			}
			return l
		case engine.SpanPlan:
			return lPlan
		case engine.SpanPipeline:
			return lPipeline
		case engine.SpanRound:
			return lRound
		case engine.SpanNet:
			return lShuffle
		case engine.SpanRepair:
			switch c.name {
			case "components":
				return lComponents
			case "instances":
				return lInstances
			case "repair":
				return lRepairOther
			}
			// Instances, reconcile rounds and algorithm phases belong to
			// the repair phase that started them.
			if strings.HasPrefix(parentLayer, "repair.") {
				return parentLayer
			}
			return lRepairOther
		}
		return lUnattributed
	}
	// covered gathers the intervals of s's descendants that belong to other
	// layers, descending through same-layer children, and returns those
	// descendants for their own accounting.
	var covered func(s *spanRec, layer string, ivs *[]interval, kids *[]kid)
	covered = func(s *spanRec, layer string, ivs *[]interval, kids *[]kid) {
		wide := false
		for _, cid := range children[s.id] {
			c := spans[cid]
			if c.kind == engine.SpanTask {
				continue
			}
			cl := childLayer(s, layer, c, &wide)
			if cl == layer {
				covered(c, layer, ivs, kids)
				continue
			}
			*ivs = append(*ivs, interval{c.start, c.end})
			*kids = append(*kids, kid{cid, cl})
		}
	}
	var visit func(id int, layer string)
	visit = func(id int, layer string) {
		s := spans[id]
		var ivs []interval
		var kids []kid
		covered(s, layer, &ivs, &kids)
		self := s.end - s.start - unionLen(ivs)
		if s.name == callDetect {
			// What DetectRules does after its last pipeline returns:
			// collecting and de-duplicating the violations.
			last := s.start
			for _, iv := range ivs {
				last = max(last, iv.b)
			}
			out[lCollect] += ms(s.end - last)
			self -= s.end - last
		}
		out[layer] += ms(self)
		for _, k := range kids {
			visit(k.id, k.layer)
		}
	}
	for _, id := range roots {
		visit(id, lUnattributed)
	}

	var stages, tasks, shuffled, blocks, pipelines, pairs, violations, fixes, detectNs, genfixNs int64
	var components, splits, conflicts, assignments, rounds int64
	for _, s := range spans {
		a := &s.attrs
		switch s.kind {
		case engine.SpanStage:
			stages++
			shuffled += a[engine.AttrRecordsShuffled]
		case engine.SpanTask:
			tasks++
			if s.parent >= 0 && isGroupStage(spans[s.parent].name) {
				blocks += a[engine.AttrRecordsOut]
			}
		case engine.SpanPlan:
			pipelines += a[engine.AttrPipelines]
		case engine.SpanPipeline:
			pairs += a[engine.AttrPairs]
			violations += a[engine.AttrViolations]
			fixes += a[engine.AttrFixes]
			detectNs += a[engine.AttrDetectNanos]
			genfixNs += a[engine.AttrGenFixNanos]
		case engine.SpanRound:
			rounds++
		case engine.SpanRepair:
			if s.name == "repair" {
				components += a[engine.AttrComponents]
				splits += a[engine.AttrSplitComponents]
				conflicts += a[engine.AttrConflicts]
				assignments += a[engine.AttrAssignments]
			}
		}
	}
	shuffled += r.counts[engine.MetricRecordsShuffled].Load()
	out["core.plan_pipelines"] = float64(pipelines)
	out["engine.stages"] = float64(stages)
	out["engine.tasks"] = float64(tasks)
	out["engine.shuffle_records"] = float64(shuffled)
	out["engine.group_blocks"] = float64(blocks)
	out["core.pairs"] = float64(pairs)
	out["core.violations"] = float64(violations)
	out["core.fixes"] = float64(fixes)
	out["core.detect_udf_ms"] = float64(detectNs) / 1e6
	out["core.genfix_ms"] = float64(genfixNs) / 1e6
	out["spill.bytes"] = float64(r.counts[engine.MetricBytesSpilled].Load())
	out["spill.runs"] = float64(r.counts[engine.MetricSpillRuns].Load())
	out["spill.merge_passes"] = float64(r.counts[engine.MetricMergePasses].Load())
	out[peakReserved] = float64(r.counts[engine.MetricPeakReservedBytes].Load())
	out["repair.components"] = float64(components)
	out["repair.split_components"] = float64(splits)
	out["repair.conflicts"] = float64(conflicts)
	out["repair.assignments"] = float64(assignments)
	out["cleanse.rounds"] = float64(rounds)
	return out
}

// layerSum accumulates layer totals over traced calls; store reports the
// per-call means. The peak reservation is a high-water mark, not a sum.
type layerSum struct {
	sum   map[string]float64
	calls int
}

const peakReserved = "spill.peak_reserved_bytes"

func (l *layerSum) add(t map[string]float64, calls int) {
	if l.sum == nil {
		l.sum = map[string]float64{}
	}
	for k, v := range t {
		if k == peakReserved {
			l.sum[k] = max(l.sum[k], v)
		} else {
			l.sum[k] += v
		}
	}
	l.calls += calls
}

func (l *layerSum) store(r *run) {
	n := float64(max(l.calls, 1))
	for k, v := range l.sum {
		if k != peakReserved {
			v /= n
		}
		r.values[k] = v
	}
	r.values["core.useful_ratio"] = 0
	if p := l.sum["core.pairs"]; p > 0 {
		r.values["core.useful_ratio"] = l.sum["core.violations"] / p
	}
}
