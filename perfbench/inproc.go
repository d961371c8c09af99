package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	pimmetrics "pimdnn/internal/metrics"
	"pimdnn/internal/mnist"
	"pimdnn/internal/plan"
	"pimdnn/internal/trace"
	"pimdnn/internal/yolo"
)

// The in-process workloads share one shape: a setup that builds the
// network, allocates the system and runs the first (cold) operation,
// then a window of warm operations timed one by one. Outputs are kept
// and checked after the window, so checking costs no window time.

// opOut is what one operation hands back.
type opOut struct {
	images     int
	simSeconds float64
	// check verifies the operation's outputs; it runs after the window.
	check func() error
	// layers is the forward's per-conv record (YOLO workloads).
	layers []yolo.LayerStat
}

// session is one set-up workload, ready for warm operations.
type session struct {
	op    func(sp *trace.Span) (opOut, error)
	close func()
}

// setupFunc builds a session. reg, when not nil, is wired into the
// system before any runner exists so the whole stack reports to it.
type setupFunc func(seed int64, reg *pimmetrics.Registry) (*session, error)

// setupRounds is how many times a run sets up its workload; setup_s is
// the median, so one slow start does not move it.
const setupRounds = 3

// runInProc sets the workload up setupRounds times (once when traced),
// measures a window on the last session and reports.
func runInProc(rc runConfig, setup setupFunc) (*result, error) {
	rounds := setupRounds
	if rc.trace {
		rounds = 1
	}
	var (
		reg     *pimmetrics.Registry
		s       *session
		setupS  []float64
		checks  []func() error
		failed  int
		attempt int
	)
	if rc.trace {
		reg = pimmetrics.NewRegistry()
	}
	for i := 0; i < rounds; i++ {
		t0 := procStart
		if s != nil {
			// Return the previous session's memory first, so peak RSS
			// is one session's.
			s.close()
			runtime.GC()
			debug.FreeOSMemory()
			t0 = time.Now()
		}
		var err error
		s, err = setup(rc.seed, reg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		// The cold operation ends set-up.
		out, err := s.op(nil)
		setupS = append(setupS, time.Since(t0).Seconds())
		attempt++
		if err != nil {
			failed++
			fmt.Printf("cold operation failed: %v\n", err)
		} else {
			checks = append(checks, out.check)
		}
	}
	defer s.close()

	var tracer *trace.Tracer
	lt := newLayerTotals()
	if rc.trace {
		// No trace of one operation may lose a span.
		tracer = trace.NewTracer(trace.TracerConfig{Ring: 1, MaxSpans: 1 << 22})
		lt.before = reg.Snapshot()
	}
	// Start every window from a collected heap, so where the first
	// collection lands does not differ from run to run.
	runtime.GC()
	gc0, alloc0 := readRuntime()
	var (
		lat        []float64
		images     int
		simSeconds float64
		bookkeep   time.Duration
		last       *trace.Trace
		lastLayers []yolo.LayerStat
	)
	window := time.Duration(rc.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < window {
		root := tracer.StartTrace(rc.workload)
		t0 := time.Now()
		out, err := s.op(root)
		d := time.Since(t0)
		root.End()
		attempt++
		lat = append(lat, ms(d))
		if err != nil {
			failed++
			fmt.Printf("operation %d failed: %v\n", attempt, err)
			continue
		}
		images += out.images
		simSeconds += out.simSeconds
		checks = append(checks, out.check)
		if root != nil {
			b0 := time.Now()
			tr := root.Trace()
			if n := tr.Dropped(); n > 0 {
				return nil, fmt.Errorf("trace of operation %d dropped %d spans", attempt, n)
			}
			lt.addSpans(spansOf(tr))
			last, lastLayers = tr, out.layers
			bookkeep += time.Since(b0)
		}
	}
	wall := time.Since(start) - bookkeep
	gc1, alloc1 := readRuntime()
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	for i, c := range checks {
		if err := c(); err != nil {
			failed++
			fmt.Printf("check %d failed: %v\n", i, err)
		}
	}
	res := &result{Correct: failed == 0, Attempted: attempt, Failed: failed}
	if p, ok := p99(lat); ok {
		fmt.Printf("latency_p99_ms %.4f over %d operations\n", p, len(lat))
	} else {
		fmt.Printf("latency_p99_ms not reported: %d operations < %d\n", len(lat), p99MinSamples)
	}
	if !rc.trace {
		res.Metrics = map[string]metric{
			"setup_s":        {median(setupS), "s"},
			"images_per_s":   {float64(images) / wall.Seconds(), "1/s"},
			"latency_p50_ms": {median(lat), "ms"},
			"peak_rss_mb":    {rss, "MB"},
		}
		fmt.Printf("window: %d operations, %d images, %.3f s; sim %.4f us/img; alloc %.1f KB/img; setups %v\n",
			len(lat), images, wall.Seconds(), simSeconds*1e6/float64(images),
			(alloc1-alloc0)/1024/float64(images), setupS)
		return res, nil
	}
	lt.after = reg.Snapshot()
	lt.ops, lt.images, lt.latMS, lt.wall = len(lat), images, lat, wall
	lt.simSeconds = simSeconds
	lt.gcCPUSeconds, lt.allocBytes = gc1-gc0, alloc1-alloc0
	res.Metrics = lt.perLayer()
	if last != nil {
		if err := writeArtefact(artefactDir, rc.workload+".perfetto.json", func(w io.Writer) error {
			return trace.WritePerfetto(w, last)
		}); err != nil {
			return nil, err
		}
	}
	if lastLayers != nil {
		if err := writeArtefact(artefactDir, rc.workload+".ledger.tsv", func(w io.Writer) error {
			return writeLedger(w, lastLayers, lt.convWall, lt.spanOps)
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeLedger writes one row per conv layer: mean span wall over the
// traced window, the tasklets it launched with, and the planner's
// predicted against the simulated seconds.
func writeLedger(w io.Writer, layers []yolo.LayerStat, wall map[int]time.Duration, ops int) error {
	if _, err := fmt.Fprintln(w, "layer\twall_ms\ttasklets\tdpus\tpredicted_s\tsimulated_s\terror"); err != nil {
		return err
	}
	for _, l := range layers {
		rel := 0.0
		if l.Seconds != 0 {
			rel = (l.PredictedSeconds - l.Seconds) / l.Seconds
		}
		if _, err := fmt.Fprintf(w, "%d\t%.4f\t%d\t%d\t%.9g\t%.9g\t%.4g\n", l.Layer,
			ms(wall[l.Layer])/float64(ops), l.Tasklets, l.DPUsUsed, l.PredictedSeconds, l.Seconds, rel); err != nil {
			return err
		}
	}
	return nil
}

// checkPredicted requires every conv layer's simulated seconds to equal
// the planner's prediction exactly: the cost model mirrors the kernels
// charge for charge.
func checkPredicted(st *yolo.ForwardStats) error {
	for _, l := range st.Layers {
		if l.Seconds != l.PredictedSeconds {
			return fmt.Errorf("layer %d: simulated %.9g s, predicted %.9g s", l.Layer, l.Seconds, l.PredictedSeconds)
		}
	}
	return nil
}

// sameOutputs compares raw YOLO output tensors bit for bit.
func sameOutputs(got, want []*yolo.Tensor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d output scales, reference has %d", len(got), len(want))
	}
	for s := range got {
		g, w := got[s], want[s]
		if g.C != w.C || g.H != w.H || g.W != w.W {
			return fmt.Errorf("scale %d: shape %dx%dx%d, reference %dx%dx%d", s, g.C, g.H, g.W, w.C, w.H, w.W)
		}
		for i := range w.Data {
			if g.Data[i] != w.Data[i] {
				return fmt.Errorf("scale %d: value %d is %d, reference %d", s, i, g.Data[i], w.Data[i])
			}
		}
	}
	return nil
}

func cloneOutputs(ts []*yolo.Tensor) []*yolo.Tensor {
	out := make([]*yolo.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// refCache computes host-reference outputs (Forward with a nil runner:
// every convolution through gemm.Reference) once per distinct input.
type refCache struct {
	net  *yolo.Network
	outs map[int64][]*yolo.Tensor
}

func (c *refCache) get(key int64, in *yolo.Tensor) ([]*yolo.Tensor, error) {
	if o, ok := c.outs[key]; ok {
		return o, nil
	}
	res, _, err := c.net.Forward(in, nil)
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	c.outs[key] = res.YoloOutputs
	return res.YoloOutputs, nil
}

// newSystem allocates n DPUs and, when reg is not nil, wires the
// system to it before any runner exists.
func newSystem(n int, reg *pimmetrics.Registry) (*host.System, error) {
	sys, err := host.NewSystem(n, host.DefaultConfig(dpu.O3))
	if err == nil && reg != nil {
		sys.EnableMetrics(reg)
	}
	return sys, err
}

// sceneSeed derives input i's scene seed from the run seed.
func sceneSeed(seed int64, i int) int64 { return seed<<24 + int64(i) }

// --- yolo-fullarray ---

// fullSamplePerRank is how many images of every rank each forward's
// check compares against the host reference.
const fullSamplePerRank = 2

func runFullArray(rc runConfig) (*result, error) {
	return runInProc(rc, func(seed int64, reg *pimmetrics.Registry) (*session, error) {
		net, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
		if err != nil {
			return nil, err
		}
		sys, err := newSystem(dpu.SystemDPUs, reg)
		if err != nil {
			return nil, err
		}
		maxK, maxN := net.GEMMBounds()
		r, err := gemm.NewRunner(sys, gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, TileCols: 64, Planner: plan.New(sys)})
		if err == nil {
			err = r.EnableBatch(net.MaxFilters())
		}
		if err != nil {
			sys.Close()
			return nil, err
		}
		inputs := make([]*yolo.Tensor, dpu.SystemDPUs)
		for i := range inputs {
			inputs[i] = yolo.SyntheticScene(32, sceneSeed(seed, i))
		}
		// A seeded sample of images from every rank.
		rng := rand.New(rand.NewSource(seed))
		var sample []int
		for rank := 0; rank < dpu.SystemDPUs/dpu.DPUsPerRank; rank++ {
			for _, j := range rng.Perm(dpu.DPUsPerRank)[:fullSamplePerRank] {
				sample = append(sample, rank*dpu.DPUsPerRank+j)
			}
		}
		sort.Ints(sample)
		refs := &refCache{net: net, outs: map[int64][]*yolo.Tensor{}}
		return &session{
			op: func(sp *trace.Span) (opOut, error) {
				r.SetTraceSpan(sp)
				results, st, err := net.ForwardBatch(inputs, r)
				r.SetTraceSpan(nil)
				if err != nil {
					return opOut{}, err
				}
				got := make([][]*yolo.Tensor, len(sample))
				for k, i := range sample {
					got[k] = cloneOutputs(results[i].YoloOutputs)
				}
				return opOut{
					images: len(inputs), simSeconds: st.Seconds, layers: st.Layers,
					check: func() error {
						if err := checkPredicted(st); err != nil {
							return err
						}
						for k, i := range sample {
							want, err := refs.get(int64(i), inputs[i])
							if err != nil {
								return err
							}
							if err := sameOutputs(got[k], want); err != nil {
								return fmt.Errorf("image %d (rank %d): %w", i, i/dpu.DPUsPerRank, err)
							}
						}
						return nil
					},
				}, nil
			},
			close: sys.Close,
		}, nil
	})
}

// --- yolo-rows ---

// rowsScenes is the number of distinct scenes yolo-rows cycles through.
const rowsScenes = 128

func runRows(rc runConfig) (*result, error) {
	return runInProc(rc, func(seed int64, reg *pimmetrics.Registry) (*session, error) {
		net, err := yolo.New(yolo.Config{InputSize: 96, Classes: 4, WidthDiv: 16, Seed: 1})
		if err != nil {
			return nil, err
		}
		sys, err := newSystem(dpu.DPUsPerRank, reg)
		if err != nil {
			return nil, err
		}
		maxK, maxN := net.GEMMBounds()
		r, err := gemm.NewRunner(sys, gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, Planner: plan.New(sys)})
		if err != nil {
			sys.Close()
			return nil, err
		}
		scenes := make([]*yolo.Tensor, rowsScenes)
		for i := range scenes {
			scenes[i] = yolo.SyntheticScene(96, sceneSeed(seed, i))
		}
		refs := &refCache{net: net, outs: map[int64][]*yolo.Tensor{}}
		next := 0
		return &session{
			op: func(sp *trace.Span) (opOut, error) {
				i := next % rowsScenes
				next++
				r.SetTraceSpan(sp)
				res, st, err := net.Forward(scenes[i], r)
				r.SetTraceSpan(nil)
				if err != nil {
					return opOut{}, err
				}
				got := cloneOutputs(res.YoloOutputs)
				return opOut{
					images: 1, simSeconds: st.Seconds, layers: st.Layers,
					check: func() error {
						if err := checkPredicted(st); err != nil {
							return err
						}
						want, err := refs.get(int64(i), scenes[i])
						if err != nil {
							return err
						}
						if err := sameOutputs(got, want); err != nil {
							return fmt.Errorf("scene %d: %w", i, err)
						}
						return nil
					},
				}, nil
			},
			close: sys.Close,
		}, nil
	})
}

// --- ebnn-mnist ---

const (
	ebnnBatch   = 4096 // digits per operation: 4 waves of 64 DPUs x 16
	ebnnBatches = 4    // distinct batches cycled through
	ebnnTrain   = 600  // training digits
)

func runEBNN(rc runConfig) (*result, error) {
	return runInProc(rc, func(seed int64, reg *pimmetrics.Registry) (*session, error) {
		ds := mnist.Load(ebnnTrain, 0, seed)
		m, err := ebnn.Train(ds, ebnn.DefaultTrainConfig())
		if err != nil {
			return nil, err
		}
		sys, err := newSystem(dpu.DPUsPerRank, reg)
		if err != nil {
			return nil, err
		}
		r, _, err := ebnn.NewPlannedRunner(sys, m, true, nil)
		if err != nil {
			sys.Close()
			return nil, err
		}
		digits := mnist.Generate(ebnnBatch*ebnnBatches, seed+1)
		want := make([]int, len(digits)) // host predictions, filled on first check
		for i := range want {
			want[i] = -1
		}
		next := 0
		return &session{
			op: func(sp *trace.Span) (opOut, error) {
				b := next % ebnnBatches
				next++
				batch := digits[b*ebnnBatch : (b+1)*ebnnBatch]
				r.SetTraceSpan(sp)
				preds, st, err := r.Infer(batch)
				r.SetTraceSpan(nil)
				if err != nil {
					return opOut{}, err
				}
				return opOut{
					images: len(batch), simSeconds: st.Seconds,
					check: func() error {
						if len(preds) != len(batch) {
							return fmt.Errorf("batch %d: %d predictions for %d digits", b, len(preds), len(batch))
						}
						for i := range batch {
							k := b*ebnnBatch + i
							if want[k] < 0 {
								want[k] = m.Predict(&digits[k])
							}
							if preds[i] != want[k] {
								return fmt.Errorf("batch %d digit %d: DPU predicts %d, host %d", b, i, preds[i], want[k])
							}
						}
						return nil
					},
				}, nil
			},
			close: sys.Close,
		}, nil
	})
}
