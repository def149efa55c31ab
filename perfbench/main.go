// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, drives the system through its public entry
// points for a fixed time, checks the outputs, and prints one JSON result
// line. Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload taxa-fd-clean --seed 1 --seconds 10 --trace 0
//
// The measuring happens in a child process, so a workload that is killed or
// runs out of memory is reported as failed with its exit status instead of
// vanishing. README.md defines the workloads and every metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one workload process; the benchmark must end within
// 180 seconds even when the system hangs.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // the bigdansing CLI, for serve-stream
	work     string // scratch directory for spill files
}

func main() {
	var o options
	var traceFlag int
	var child bool
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run; 0 the end-to-end metrics")
	flag.StringVar(&o.bin, "bin", "", "path of the bigdansing binary")
	flag.StringVar(&o.work, "work", "", "scratch directory")
	flag.BoolVar(&child, "child", false, "run the workload in this process")
	flag.Parse()
	o.trace = traceFlag == 1

	if _, ok := workloads[o.workload]; !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 || o.bin == "" || o.work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: usage: run.sh --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if child {
		os.Exit(runChild(o))
	}
	os.Exit(supervise())
}

// supervise re-runs this binary as the workload process, relays its output,
// and turns an abnormal end (a signal, an OOM kill, a crash, a timeout)
// into a failed result.
func supervise() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cmd := exec.Command(self, append(os.Args[1:], "-child")...)
	cmd.Stderr = os.Stderr
	// A process group of its own lets the supervisor stop the workload and
	// anything it started (the serve child) in one signal.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: starting the workload process: %v\n", err)
		return 1
	}
	timer := time.AfterFunc(childTimeout, func() { syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) })
	sawResult := false
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		sawResult = strings.HasPrefix(line, `{"correct"`)
	}
	werr := cmd.Wait()
	timer.Stop()
	// Reap anything the workload process left behind.
	syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)

	code := 0
	var exitErr *exec.ExitError
	switch {
	case werr == nil:
	case errors.As(werr, &exitErr) && exitErr.Exited():
		code = exitErr.ExitCode()
	default:
		code = -1
	}
	if sawResult && code >= 0 {
		return code
	}
	info := map[string]any{
		"workload_process": fmt.Sprint(werr),
		"exit_code":        code,
		"elapsed_s":        time.Since(start).Seconds(),
	}
	if exitErr != nil {
		if ru, ok := exitErr.SysUsage().(*syscall.Rusage); ok {
			info["peak_rss_mb"] = float64(ru.Maxrss) / 1024
		}
	}
	printJSON(map[string]any{"info": info})
	printJSON(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
	return 1
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

// runChild runs the workload and prints its info and result lines. It
// exits 1 when any operation or output check failed.
func runChild(o options) int {
	spill, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(spill)
	o.work = spill

	r := newRun(o)
	workloads[o.workload](r)

	names := endToEnd
	if o.trace {
		names = perLayer
	}
	for _, d := range names {
		if _, ok := r.values[d.name]; !ok && d.name != "ok_ratio" {
			r.fail("metric "+d.name, "not measured")
		}
	}
	r.values["ok_ratio"] = 1 - float64(r.failed)/float64(max(r.attempted, 1))
	out := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range names {
		if v, ok := r.values[d.name]; ok {
			out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	printJSON(map[string]any{"info": r.info})
	printJSON(out)
	if !out.Correct {
		return 1
	}
	return 0
}

// sourceDigest identifies the measured code when the checkout is not a git
// repository: a hash over go.mod and every file under cmd/ and internal/,
// relative to the working directory, the repository root.
func sourceDigest() string {
	h := sha256.New()
	add := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			return
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
	}
	add("go.mod")
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				add(path)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
