package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// steady runs each workload -runs times, every run a separate process
// with its own seed, alternating the workload order between rounds so
// no workload always follows the same neighbour. It prints each
// end-to-end metric's median, quartiles and quartile spread, and the
// failed share of operations, per workload.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per workload")
	seconds := fs.Float64("seconds", 15, "measured window of each run")
	seed0 := fs.Int64("seed", 1, "seed of the first round; round r uses seed+r")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> values
	units := map[string]string{}
	shares := map[string][]string{}
	for r := 0; r < *runs; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, n := range order {
			seed := *seed0 + int64(r)
			t0 := time.Now()
			res, err := runOnce(self, n, seed, *seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", n, seed, err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %d/%d failed, %.1f s:", n, seed, res.Failed, res.Attempted, time.Since(t0).Seconds())
			for _, k := range sortedKeys(res.Metrics) {
				fmt.Fprintf(os.Stderr, " %s=%.6g", k, res.Metrics[k].Value)
			}
			fmt.Fprintln(os.Stderr)
			if values[n] == nil {
				values[n] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				values[n][k] = append(values[n][k], m.Value)
				units[k] = m.Unit
			}
			shares[n] = append(shares[n], strconv.Itoa(res.Failed)+"/"+strconv.Itoa(res.Attempted))
		}
	}
	host, _ := os.Hostname()
	fmt.Printf("host %s, %s, %d runs of %g s per workload\n", host, cpuModel(), *runs, *seconds)
	fmt.Printf("%-15s %-15s %6s %14s %14s %14s %8s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread")
	for _, n := range names {
		for _, k := range sortedKeys(values[n]) {
			xs := values[n][k]
			q1, q3 := quartiles(xs)
			fmt.Printf("%-15s %-15s %6s %14.6g %14.6g %14.6g %7.2f%%\n", n, k, units[k], q1, median(xs), q3, 100*spread(xs))
		}
		fmt.Printf("%-15s failed/attempted: %s\n", n, strings.Join(shares[n], " "))
	}
	return nil
}

// runOnce runs one untraced benchmark process and parses its last line.
func runOnce(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs\n%s", out)
	}
	return &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
