// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload through the simulator stack's public entry points,
// checks every output against a computation made apart from the code
// under test, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a traced run) as one JSON object on the last
// line of standard output.
//
//	perfbench --workload yolo-rows --seed 1 --seconds 10 --trace 0
//	perfbench steady -runs 5 -seconds 10 [workload ...]
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pimdnn/internal/host"
)

// procStart approximates process start: package initialisation runs
// before main, after the runtime is up.
var procStart = time.Now()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// artefactDir receives the traced runs' per-conv ledgers and Perfetto
// exports; run.sh keeps everything the benchmark writes under
// .bench_build.
const artefactDir = ".bench_build/out"

// workloads maps each workload name to its run; README.md says why each
// was chosen.
var workloads = map[string]func(rc runConfig) (*result, error){
	"yolo-fullarray": runFullArray,
	"yolo-rows":      runRows,
	"ebnn-mnist":     runEBNN,
	"serve-mix":      runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "length of the measured window")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rc := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1}
	printMeta(rc)
	res, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMeta records the run's environment on a line of its own, ahead of
// the result line.
func printMeta(rc runConfig) {
	meta := map[string]any{
		"workload":   rc.workload,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"pipelined":  host.PipelineAuto.Enabled(),
	}
	b, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", b)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status; pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
