package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pimdnn/internal/yolo"
)

// serve-mix runs the upmem-serve binary as a child process on loopback
// and drives it with a closed loop of serveClients keep-alive clients.
// The arena is smaller than the two models' weights together, so model
// switches evict and redeliver; the short batching deadline keeps the
// timer from setting the latency floor.

const (
	serveClients  = 2
	serveMaxBatch = 2
	serveScenes   = 64 // distinct scene seeds per model
	// serveTraces is how many of the last requests' traces a traced run
	// fetches for span attribution (the flight-recorder ring holds 64).
	serveTraces = 16
	// serveMaxSpans is upmem-serve's per-trace span cap (the tracer
	// default); a trace holding fewer spans dropped none.
	serveMaxSpans = 4096
)

// serveModel mirrors one -models entry (upmem-serve builds every model
// with 4 classes and weight seed 1).
type serveModel struct {
	name           string
	size, widthDiv int
}

var serveModels = []serveModel{{"tiny", 64, 32}, {"lite", 96, 16}}

func serveArgs(traced bool) []string {
	var models []string
	for _, m := range serveModels {
		models = append(models, fmt.Sprintf("%s=%dx%d", m.name, m.size, m.widthDiv))
	}
	sample := "0"
	if traced {
		sample = "1"
	}
	return []string{
		"-addr", "127.0.0.1:0",
		"-models", strings.Join(models, ","),
		"-max-batch", strconv.Itoa(serveMaxBatch),
		"-max-wait", "2ms",
		"-weight-cache", "409600",
		"-trace-sample", sample,
	}
}

// server is one running upmem-serve child.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once stdout is drained
}

// serverBinary is built next to the benchmark by run.sh.
const serverBinary = ".bench_build/bin/upmem-serve"

func startServer(traced bool) (*server, error) {
	cmd := exec.Command(serverBinary, serveArgs(traced)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", serverBinary, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	if _, rest, ok := strings.Cut(line, " on http://"); ok && err == nil {
		s.base = "http://" + strings.Fields(rest)[0]
	}
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(s.done)
	}()
	if s.base == "" {
		s.stop()
		return nil, fmt.Errorf("upmem-serve did not report its address (read %q, %v)", line, err)
	}
	return s, nil
}

// stop asks the server to shut down and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	_ = s.cmd.Wait()
}

func (s *server) getJSON(c *http.Client, path string, v any) error {
	resp, err := c.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// inferResp is the part of upmem-serve's /v1/infer response checked.
type inferResp struct {
	Detections []yolo.Detection `json:"detections"`
	BatchSize  int              `json:"batch_size"`
	QueueUS    uint64           `json:"queue_us"`
	LatencyUS  uint64           `json:"latency_us"`
	DPUSeconds float64          `json:"dpu_seconds"`
	TraceID    uint64           `json:"trace_id"`
}

// call is one request and what came back.
type call struct {
	model  int
	seed   int64
	status int
	err    error
	resp   inferResp
	lat    time.Duration // as the client saw it
}

func (s *server) infer(c *http.Client, model int, seed int64) call {
	cl := call{model: model, seed: seed}
	body := fmt.Sprintf(`{"model":%q,"seed":%d}`, serveModels[model].name, seed)
	t0 := time.Now()
	resp, err := c.Post(s.base+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		cl.err = err
		return cl
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	cl.lat = time.Since(t0)
	cl.status = resp.StatusCode
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(buf.Bytes(), &cl.resp)
	}
	cl.err = err
	return cl
}

func runServe(rc runConfig) (*result, error) {
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
	defer client.CloseIdleConnections()
	rounds := setupRounds
	if rc.trace {
		rounds = 1
	}
	var (
		srv    *server
		setupS []float64
		calls  []call
		sent   = make([]uint64, len(serveModels)) // requests sent to the final server
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < rounds; i++ {
		t0 := procStart
		if srv != nil {
			srv.stop()
			srv = nil
			t0 = time.Now()
		}
		var err error
		if srv, err = startServer(rc.trace); err != nil {
			return nil, err
		}
		// The cold requests, one per model, end set-up: they deliver
		// each model's weights into the arena.
		for m := range serveModels {
			calls = append(calls, srv.infer(client, m, sceneSeed(rc.seed, 0)))
			sent[m] = 1
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	lt := newLayerTotals()
	if rc.trace {
		if err := srv.getJSON(client, "/metrics?format=json", &lt.before); err != nil {
			return nil, err
		}
	}
	window := time.Duration(rc.seconds * float64(time.Second))
	perClient := make([][]call, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(rc.seed*serveClients + int64(c)))
			for time.Since(start) < window {
				m := rng.Intn(len(serveModels))
				perClient[c] = append(perClient[c], srv.infer(client, m, sceneSeed(rc.seed, rng.Intn(serveScenes))))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var lat []float64
	var simSeconds float64
	for _, cs := range perClient {
		for _, cl := range cs {
			sent[cl.model]++
			lat = append(lat, ms(cl.lat))
			if cl.resp.BatchSize > 0 {
				simSeconds += cl.resp.DPUSeconds / float64(cl.resp.BatchSize)
			}
			lt.queueWaitMS += float64(cl.resp.QueueUS) / 1e3
			lt.execMS += float64(cl.resp.LatencyUS-cl.resp.QueueUS) / 1e3
			lt.httpMS += ms(cl.lat) - float64(cl.resp.LatencyUS)/1e3
			lt.batch += float64(cl.resp.BatchSize)
		}
		calls = append(calls, cs...)
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	if rc.trace {
		if err := serveTraceLayers(rc, srv, client, perClient, lt); err != nil {
			return nil, err
		}
	}

	failed := checkCalls(calls)
	if err := checkServeStats(srv, client, sent); err != nil {
		fmt.Printf("server stats check failed: %v\n", err)
		failed++
	}
	res := &result{Correct: failed == 0, Attempted: len(calls), Failed: failed}
	if p, ok := p99(lat); ok {
		fmt.Printf("latency_p99_ms %.4f over %d requests\n", p, len(lat))
	} else {
		fmt.Printf("latency_p99_ms not reported: %d requests < %d\n", len(lat), p99MinSamples)
	}
	if !rc.trace {
		res.Metrics = map[string]metric{
			"setup_s":        {median(setupS), "s"},
			"images_per_s":   {float64(len(lat)) / wall.Seconds(), "1/s"},
			"latency_p50_ms": {median(lat), "ms"},
			"peak_rss_mb":    {rss, "MB"},
		}
		fmt.Printf("window: %d requests, %.3f s; sim %.4f us/img; setups %v\n",
			len(lat), wall.Seconds(), simSeconds*1e6/float64(len(lat)), setupS)
		return res, nil
	}
	lt.ops, lt.images, lt.latMS, lt.wall, lt.simSeconds = len(lat), len(lat), lat, wall, simSeconds
	res.Metrics = lt.perLayer()
	return res, nil
}

// serveTraceLayers reads the server's registry after the window and the
// span trees of the last requests.
func serveTraceLayers(rc runConfig, srv *server, client *http.Client, perClient [][]call, lt *layerTotals) error {
	if err := srv.getJSON(client, "/metrics?format=json", &lt.after); err != nil {
		return err
	}
	var last []call
	for _, cs := range perClient {
		if len(cs) > serveTraces/serveClients {
			cs = cs[len(cs)-serveTraces/serveClients:]
		}
		last = append(last, cs...)
	}
	for i, cl := range last {
		resp, err := client.Get(fmt.Sprintf("%s/v1/trace/%d", srv.base, cl.resp.TraceID))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("trace %d: %s", cl.resp.TraceID, resp.Status)
		}
		spans, err := perfettoSpans(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		if n := bytes.Count(raw, []byte(`"ph": "X"`)); n >= serveMaxSpans {
			return fmt.Errorf("trace %d holds %d spans, at the cap: spans may have been dropped", cl.resp.TraceID, n)
		}
		lt.addSpans(spans)
		if i == len(last)-1 {
			if err := writeArtefact(artefactDir, rc.workload+".perfetto.json", func(w io.Writer) error {
				_, err := w.Write(raw)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCalls verifies every response against the host reference for
// its model and seed and returns how many failed.
func checkCalls(calls []call) int {
	refs := make([]map[int64][]yolo.Detection, len(serveModels))
	nets := make([]*yolo.Network, len(serveModels))
	failed := 0
	for i, cl := range calls {
		err := func() error {
			if cl.err != nil {
				return cl.err
			}
			if cl.status != http.StatusOK {
				return fmt.Errorf("status %d", cl.status)
			}
			if b := cl.resp.BatchSize; b < 1 || b > serveMaxBatch {
				return fmt.Errorf("batch_size %d outside [1, %d]", b, serveMaxBatch)
			}
			m := serveModels[cl.model]
			if nets[cl.model] == nil {
				net, err := yolo.New(yolo.Config{InputSize: m.size, Classes: 4, WidthDiv: m.widthDiv, Seed: 1})
				if err != nil {
					return err
				}
				nets[cl.model], refs[cl.model] = net, map[int64][]yolo.Detection{}
			}
			want, ok := refs[cl.model][cl.seed]
			if !ok {
				res, _, err := nets[cl.model].Forward(yolo.SyntheticScene(m.size, cl.seed), nil)
				if err != nil {
					return fmt.Errorf("host reference: %w", err)
				}
				want = res.Detections
				refs[cl.model][cl.seed] = want
			}
			if len(cl.resp.Detections) != len(want) {
				return fmt.Errorf("%d detections, reference has %d", len(cl.resp.Detections), len(want))
			}
			for j := range want {
				if cl.resp.Detections[j] != want[j] {
					return fmt.Errorf("detection %d is %+v, reference %+v", j, cl.resp.Detections[j], want[j])
				}
			}
			return nil
		}()
		if err != nil {
			failed++
			fmt.Printf("request %d (%s seed %d) failed: %v\n", i, serveModels[cl.model].name, cl.seed, err)
		}
	}
	return failed
}

// checkServeStats requires the server's per-model counts to equal the
// requests this run sent, with none rejected.
func checkServeStats(srv *server, client *http.Client, sent []uint64) error {
	var body struct {
		Stats []struct {
			Model    string `json:"model"`
			Requests uint64 `json:"requests"`
			Rejected uint64 `json:"rejected"`
		} `json:"stats"`
	}
	if err := srv.getJSON(client, "/v1/stats", &body); err != nil {
		return err
	}
	seen := 0
	for _, st := range body.Stats {
		for m, sm := range serveModels {
			if st.Model != sm.name {
				continue
			}
			seen++
			if st.Requests != sent[m] || st.Rejected != 0 {
				return fmt.Errorf("model %s: server counted %d requests (%d rejected), %d sent", sm.name, st.Requests, st.Rejected, sent[m])
			}
		}
	}
	if seen != len(serveModels) {
		return fmt.Errorf("stats list %d of %d models", seen, len(serveModels))
	}
	return nil
}
