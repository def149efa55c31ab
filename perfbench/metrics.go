package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the whole-run metrics a user of the system sees, printed by
// untraced runs (--trace 0). README.md gives each one's meaning per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"mallocs_k", "k"},
	{"repair_precision", "ratio"},
	{"repair_recall", "ratio"},
	{"ingest_p50_ms", "ms"},
	{"stream_rows_per_s", "rows/s"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of single layers, printed by traced runs
// (--trace 1). Times and counts are per measured call: one Clean or
// DetectRules call, or one serve flush cycle.
var perLayer = []metricDef{
	{"core.plan_ms", "ms"},
	{"core.plan_pipelines", "count"},
	{"engine.scan_ms", "ms"},
	{"engine.shuffle_ms", "ms"},
	{"engine.shuffle_records", "count"},
	{"engine.group_ms", "ms"},
	{"engine.group_blocks", "count"},
	{"engine.stages", "count"},
	{"engine.tasks", "count"},
	{"core.detect_ms", "ms"},
	{"core.detect_udf_ms", "ms"},
	{"core.genfix_ms", "ms"},
	{"core.pairs", "count"},
	{"core.violations", "count"},
	{"core.fixes", "count"},
	{"core.useful_ratio", "ratio"},
	{"core.pipeline_self_ms", "ms"},
	{"core.collect_dedup_ms", "ms"},
	{"spill.ms", "ms"},
	{"spill.bytes", "bytes"},
	{"spill.runs", "count"},
	{"spill.merge_passes", "count"},
	{"spill.peak_reserved_bytes", "bytes"},
	{"repair.components_ms", "ms"},
	{"repair.instances_ms", "ms"},
	{"repair.other_ms", "ms"},
	{"repair.components", "count"},
	{"repair.split_components", "count"},
	{"repair.conflicts", "count"},
	{"repair.assignments", "count"},
	{"cleanse.rounds", "count"},
	{"cleanse.round_self_ms", "ms"},
	{"serve.flush_detect_ms", "ms"},
	{"serve.flush_repair_ms", "ms"},
	{"serve.flush_other_ms", "ms"},
	{"serve.queue_max", "count"},
	{"serve.rejected", "count"},
	{"serve.heap_growth_kb_per_flush", "KB"},
	{"serve.generator_late_ms", "ms"},
	{"unattributed_ms", "ms"},
	{"trace_overhead_ratio", "ratio"},
}

// run is one benchmark run's state: measured values, the record printed
// beside them, and the failure accounting.
type run struct {
	options
	values    map[string]float64
	info      map[string]any
	checks    map[string]string
	attempted int
	failed    int
}

func newRun(o options) *run {
	r := &run{
		options: o,
		values:  map[string]float64{},
		checks:  map[string]string{},
	}
	r.info = map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"source_hash": sourceDigest(),
		"checks":      r.checks,
	}
	return r
}

// op counts one attempted operation (a batch call, an ingest, a flush) and
// whether it failed.
func (r *run) op(err error, what string) {
	r.attempted++
	if err != nil {
		r.failed++
		r.checks["op failed: "+what] = err.Error()
	}
}

// check counts one output check. A failed check counts as a failed
// operation; it is never dropped from the result.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		r.checks[name] = "ok"
		return
	}
	r.failed++
	r.checks[name] = "FAILED: " + fmt.Sprintf(format, args...)
}

func (r *run) fail(name, why string) { r.check(name, false, "%s", why) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the value at the highest percentile that has at least ten
// samples beyond it, with that percentile and the sample count. With
// fewer than eleven samples no percentile qualifies and the maximum is
// reported (percentile 100).
func tail(xs []float64) (v, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 11 {
		return s[n-1], 100, n
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n), n
}

// quantiles returns the nearest-rank quantiles qs of xs.
func quantiles(xs []float64, qs ...float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(s) > 0 {
			out[i] = s[min(len(s)-1, max(0, int(math.Ceil(q*float64(len(s))))-1))]
		}
	}
	return out
}

type memSample struct{ alloc, mallocs uint64 }

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

func (a memSample) mb(b memSample) float64 { return float64(b.alloc-a.alloc) / (1 << 20) }
func (a memSample) k(b memSample) float64  { return float64(b.mallocs-a.mallocs) / 1000 }

// heapLive returns the live heap after a full collection, in bytes.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// setupTimes runs a set-up step n times and returns the median duration in
// seconds; each step's result replaces the previous one.
func setupTimes(n int, step func()) float64 {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		step()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the user plus system CPU time of this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds is the machine-wide CPU time the hypervisor took from this
// machine's CPUs (the steal column of /proc/stat), summed over CPUs.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}
