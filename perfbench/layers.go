package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	pimmetrics "pimdnn/internal/metrics"
	"pimdnn/internal/trace"
)

// Per-layer attribution. A traced run hangs one root span on every
// timed operation; the stack's own spans (yolo_convNNN, gemm.batch /
// gemm.multiply, plan, the exec engine's scatter/launch/gather/wave,
// ebnn.infer) become its descendants. Self times come from those spans;
// counts and bytes come from the metrics registry the stack already
// feeds (System.EnableMetrics), read as deltas over the window.

// spanRec is one finished span, from an in-process trace or an exported
// Perfetto trace.
type spanRec struct {
	id, parent uint64
	name       string
	iv         interval
}

// layerTotals accumulates one traced window.
type layerTotals struct {
	ops, images int
	spanOps     int // operations whose spans were attributed
	latMS       []float64
	wall        time.Duration

	yoloHost, gemmSelf, ebnnSelf, plan time.Duration
	phase                              map[string]time.Duration // exec wave phases by span name
	simSeconds                         float64                  // modelled device time of the window

	// serve-mix only: per-request figures from the responses.
	queueWaitMS, execMS, httpMS, batch float64

	gcCPUSeconds, allocBytes float64
	before, after            pimmetrics.Snapshot

	// ledger rows by conv layer: summed span wall over the window.
	convWall map[int]time.Duration
}

func newLayerTotals() *layerTotals {
	return &layerTotals{phase: map[string]time.Duration{}, convWall: map[int]time.Duration{}}
}

var execPhases = []string{"scatter", "launch", "gather", "wave"}

// addSpans attributes one operation's spans.
func (t *layerTotals) addSpans(spans []spanRec) {
	t.spanOps++
	kids := map[uint64][]interval{}
	runsConvs := map[uint64]bool{}
	for _, s := range spans {
		// dpu_kernel spans are simulated device windows, not host
		// wall-clock work, so they cover nothing of their parent.
		if s.name == "dpu_kernel" {
			continue
		}
		kids[s.parent] = append(kids[s.parent], s.iv)
		if strings.HasPrefix(s.name, "yolo_conv") {
			runsConvs[s.parent] = true
		}
	}
	for _, s := range spans {
		d := s.iv.end - s.iv.start
		switch s.name {
		case "gemm.batch", "gemm.multiply":
			t.gemmSelf += selfTime(s.iv, kids[s.id])
		case "ebnn.infer":
			t.ebnnSelf += selfTime(s.iv, kids[s.id])
		case "plan":
			t.plan += d
		case "scatter", "launch", "gather", "wave":
			t.phase[s.name] += d
		}
		var layer int
		if _, err := fmt.Sscanf(s.name, "yolo_conv%d", &layer); err == nil {
			t.convWall[layer] += d
		}
		// The forward's own host work (im2col, route/upsample/shortcut,
		// decode, NMS) is the self time of the span its convs hang off.
		if runsConvs[s.id] {
			t.yoloHost += selfTime(s.iv, kids[s.id])
		}
	}
}

// spansOf converts an in-process trace.
func spansOf(tr *trace.Trace) []spanRec {
	nodes := tr.Spans()
	out := make([]spanRec, len(nodes))
	for i, n := range nodes {
		out[i] = spanRec{id: uint64(n.ID), parent: uint64(n.Parent), name: n.Name, iv: interval{n.Start, n.End}}
	}
	return out
}

// perfettoSpans reads a Perfetto export of one trace and rebuilds the
// parent links the format does not carry: a span's parent is the
// innermost earlier span that contains it. Simulated dpu_kernel windows
// are left out, as they may outlast their launch span.
func perfettoSpans(r io.Reader) ([]spanRec, error) {
	var doc struct {
		TraceEvents []trace.TraceEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode Perfetto trace: %w", err)
	}
	var out []spanRec
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "dpu_kernel" {
			continue
		}
		start := time.Duration(math.Round(ev.Ts * 1e3))
		out = append(out, spanRec{name: ev.Name, iv: interval{start, start + time.Duration(math.Round(ev.Dur*1e3))}})
	}
	// Outer spans first: by start, then longest.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].iv.start != out[j].iv.start {
			return out[i].iv.start < out[j].iv.start
		}
		return out[i].iv.end > out[j].iv.end
	})
	var stack []int
	for i := range out {
		out[i].id = uint64(i + 1)
		for len(stack) > 0 && out[stack[len(stack)-1]].iv.end < out[i].iv.end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			out[i].parent = out[stack[len(stack)-1]].id
		}
		stack = append(stack, i)
	}
	return out, nil
}

// readRuntime samples the Go runtime's cumulative GC CPU time and heap
// allocation.
func readRuntime() (gcCPUSeconds, allocBytes float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPUSeconds = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[1].Value.Uint64())
	}
	return gcCPUSeconds, allocBytes
}

// counterDelta sums every counter called name (all labels, or only
// those whose label value is val when val is not empty) across the
// window.
func (t *layerTotals) counterDelta(name, val string) float64 {
	sum := func(s pimmetrics.Snapshot) float64 {
		var v float64
		for _, c := range s.Counters {
			if c.Name == name && (val == "" || c.LabelVal == val) {
				v += float64(c.Value)
			}
		}
		return v
	}
	return sum(t.after) - sum(t.before)
}

// histSumDelta is the growth of a histogram's observation sum.
func (t *layerTotals) histSumDelta(name string) float64 {
	sum := func(s pimmetrics.Snapshot) float64 {
		var v float64
		for _, h := range s.Histograms {
			if h.Name == name {
				v += float64(h.Sum)
			}
		}
		return v
	}
	return sum(t.after) - sum(t.before)
}

// perLayer renders the per-layer metrics. Every metric is printed for
// every workload; a layer a workload does not exercise reads 0.
func (t *layerTotals) perLayer() map[string]metric {
	ops, imgs := float64(t.ops), float64(t.images)
	perOp := func(d time.Duration) float64 { return ms(d) / float64(max(t.spanOps, 1)) }
	hits := t.counterDelta("pim_wcache_hits_total", "")
	lookups := hits + t.counterDelta("pim_wcache_misses_total", "")
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = hits / lookups
	}
	m := map[string]metric{
		"traced.images_per_s":      {imgs / t.wall.Seconds(), "1/s"},
		"traced.latency_p50_ms":    {median(t.latMS), "ms"},
		"yolo.host_ms":             {perOp(t.yoloHost), "ms/op"},
		"gemm.self_ms":             {perOp(t.gemmSelf), "ms/op"},
		"plan.ms":                  {perOp(t.plan), "ms/op"},
		"exec.waves":               {t.counterDelta("pim_exec_waves_total", "") / ops, "count/op"},
		"exec.retries":             {t.counterDelta("pim_exec_retries_total", "") / ops, "count/op"},
		"exec.wcache_hit_ratio":    {hitRatio, "ratio"},
		"exec.wcache_lookups":      {lookups / ops, "count/op"},
		"exec.wcache_delivered_kb": {t.counterDelta("pim_wcache_delivered_bytes_total", "") / 1024 / ops, "KB/op"},
		"exec.wcache_evictions":    {t.counterDelta("pim_wcache_evictions_total", "") / ops, "count/op"},
		"host.xfer_to_kb":          {t.counterDelta("pim_host_xfer_bytes_total", "to_dpu") / 1024 / imgs, "KB/img"},
		"host.xfer_from_kb":        {t.counterDelta("pim_host_xfer_bytes_total", "from_dpu") / 1024 / imgs, "KB/img"},
		"host.xfer_ops":            {t.counterDelta("pim_host_xfer_ops_total", "") / ops, "count/op"},
		"host.queue_ms":            {t.histSumDelta("pim_host_cmd_latency_ns") / 1e6 / ops, "ms/op"},
		"dpu.launches":             {t.counterDelta("pim_dpu_launches_total", "") / ops, "count/op"},
		"dpu.sim_cycles":           {t.counterDelta("pim_dpu_cycles_total", "") / imgs, "cycles/img"},
		"dpu.sim_us":               {t.simSeconds * 1e6 / imgs, "us/img"},
		"dpu.mram_kb":              {t.counterDelta("pim_dpu_mram_bytes_total", "") / 1024 / imgs, "KB/img"},
		"dpu.wram_kb":              {t.counterDelta("pim_dpu_wram_bytes_total", "") / 1024 / imgs, "KB/img"},
		"ebnn.self_ms":             {perOp(t.ebnnSelf), "ms/op"},
		"serve.queue_wait_ms":      {t.queueWaitMS / ops, "ms"},
		"serve.exec_ms":            {t.execMS / ops, "ms"},
		"serve.http_ms":            {t.httpMS / ops, "ms"},
		"serve.batch_size":         {t.batch / ops, "images"},
		"runtime.gc_cpu_ms":        {t.gcCPUSeconds * 1e3 / imgs, "ms/img"},
		"runtime.alloc_kb":         {t.allocBytes / 1024 / imgs, "KB/img"},
	}
	for _, p := range execPhases {
		m["exec."+p+"_ms"] = metric{perOp(t.phase[p]), "ms/op"}
	}
	return m
}

// writeArtefact creates dir/name and fills it with write.
func writeArtefact(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", name, err)
	}
	return f.Close()
}
