package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 1, 2}, 2},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4)
// ("exclusive" method) on the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10.5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1}, 0.5, 3.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestP99NeedsOneThousandSamples(t *testing.T) {
	xs := make([]float64, p99MinSamples-1)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := p99(xs); ok {
		t.Fatalf("p99 reported over %d samples", len(xs))
	}
	xs = append(xs, p99MinSamples)
	got, ok := p99(xs)
	if !ok || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", got, ok)
	}
	// At least ten samples lie beyond it.
	beyond := 0
	for _, x := range xs {
		if x > got {
			beyond++
		}
	}
	if beyond < 10 {
		t.Fatalf("%d samples beyond p99, want >= 10", beyond)
	}
}

func iv(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	cases := []struct {
		name     string
		span     interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(0, 100), nil, 100},
		{"disjoint", iv(0, 100), []interval{iv(10, 20), iv(50, 70)}, 70},
		{"overlapping counted once", iv(0, 100), []interval{iv(10, 40), iv(30, 60), iv(55, 58)}, 50},
		{"nested counted once", iv(0, 100), []interval{iv(10, 90), iv(20, 30)}, 20},
		{"clipped to the span", iv(0, 100), []interval{iv(-20, 10), iv(95, 150)}, 85},
		{"child outside", iv(0, 100), []interval{iv(100, 120)}, 100},
		{"fully covered", iv(0, 100), []interval{iv(0, 60), iv(60, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

// A forward span's self time is the host work around its conv spans;
// gemm self time excludes the exec phases under it but not the
// simulated dpu_kernel windows, which are not host work.
func TestAddSpansAttribution(t *testing.T) {
	spans := []spanRec{
		{id: 1, name: "op", iv: iv(0, 1000)},
		{id: 2, parent: 1, name: "yolo_conv000", iv: iv(100, 400)},
		{id: 3, parent: 2, name: "gemm.batch", iv: iv(110, 390)},
		{id: 4, parent: 3, name: "plan", iv: iv(120, 130)},
		{id: 5, parent: 3, name: "wave", iv: iv(150, 350)},
		{id: 6, parent: 5, name: "dpu_kernel", iv: iv(150, 5000)},
		{id: 7, parent: 1, name: "yolo_conv002", iv: iv(500, 900)},
	}
	lt := newLayerTotals()
	lt.addSpans(spans)
	if want := time.Duration(1000 - 300 - 400); lt.yoloHost != want {
		t.Errorf("yolo host %v, want %v", lt.yoloHost, want)
	}
	if want := time.Duration(280 - 10 - 200); lt.gemmSelf != want {
		t.Errorf("gemm self %v, want %v", lt.gemmSelf, want)
	}
	if lt.plan != 10 || lt.phase["wave"] != 200 {
		t.Errorf("plan %v, wave %v; want 10, 200", lt.plan, lt.phase["wave"])
	}
	if lt.convWall[0] != 300 || lt.convWall[2] != 400 {
		t.Errorf("conv walls %v", lt.convWall)
	}
}

// Parent links rebuilt from a Perfetto export by containment give the
// same attribution as the in-process tree.
func TestPerfettoSpansRebuildNesting(t *testing.T) {
	doc := `{"traceEvents": [
 {"name": "process_name", "ph": "M", "ts": 0, "pid": 1, "tid": 0},
 {"name": "infer", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 0},
 {"name": "batch_exec", "ph": "X", "ts": 0.1, "dur": 0.8, "pid": 1, "tid": 1},
 {"name": "yolo_conv000", "ph": "X", "ts": 0.2, "dur": 0.3, "pid": 1, "tid": 2},
 {"name": "gemm.batch", "ph": "X", "ts": 0.21, "dur": 0.28, "pid": 1, "tid": 3},
 {"name": "dpu_kernel", "ph": "X", "ts": 0.25, "dur": 9, "pid": 1, "tid": 5},
 {"name": "launch", "ph": "X", "ts": 0.25, "dur": 0.2, "pid": 1, "tid": 4}
]}`
	spans, err := perfettoSpans(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 5 {
		t.Fatalf("%d spans, want 5 (metadata and dpu_kernel left out)", len(spans))
	}
	lt := newLayerTotals()
	lt.addSpans(spans)
	if want := time.Duration(800 - 300); lt.yoloHost != want {
		t.Errorf("yolo host %v, want %v", lt.yoloHost, want)
	}
	if want := time.Duration(280 - 200); lt.gemmSelf != want {
		t.Errorf("gemm self %v, want %v", lt.gemmSelf, want)
	}
}
