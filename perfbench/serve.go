package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trios/internal/benchmarks"
	"trios/internal/compiler"
	"trios/internal/device"
	"trios/internal/noise"
	"trios/internal/obs"
	"trios/internal/qasm"
	"trios/internal/service"
)

// Serve workloads: a service configured as triosd's defaults (memory only,
// tracer on, no templates) behind a loopback HTTP server, driven by a closed
// loop of procs clients, each POSTing /v1/compile with inline QASM and
// cycling through the 22 bodies (Table-1 circuit x pipeline, optimize on).
// The bodies carry no seed, so the service compiles them with its default
// seed 1. serve-hit sends them as they are, so after warm-up every request
// is a cache hit; serve-miss adds a fresh seed drawn from the workload seed
// to every request, so every key is new.

const (
	// spanHeader carries the client's request span id to the traced handler.
	spanHeader = "X-Perfbench-Span"
	// sampleEvery picks which serve-miss responses are kept for the
	// post-run compile check, up to samplePerClient per client.
	sampleEvery     = 64
	samplePerClient = 4
	// probeReps is how often the traced run re-parses and re-emits each body.
	probeReps = 10
)

// body is one request of the serve mix.
type body struct {
	req   service.CompileRequest
	json  []byte
	gates int
}

func buildBodies() ([]body, error) {
	var out []body
	for _, b := range benchmarks.All() {
		c, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("benchmark %s: %w", b.Name, err)
		}
		src, err := qasm.Emit(c)
		if err != nil {
			return nil, err
		}
		for _, p := range []string{"baseline", "trios"} {
			req := service.CompileRequest{QASM: src, Pipeline: p, Optimize: true}
			js, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			out = append(out, body{req: req, json: js, gates: len(c.Gates)})
		}
	}
	return out, nil
}

// withSeed returns b's JSON with a seed field added.
func (b body) withSeed(seed int64) ([]byte, service.CompileRequest) {
	js := append([]byte(`{"seed":`+strconv.FormatInt(seed, 10)+`,`), b.json[1:]...)
	req := b.req
	req.Seed = &seed
	return js, req
}

// server is one started service with its warm-up responses.
type server struct {
	svc    *service.Service
	http   *httptest.Server
	client *http.Client
	traced *tracedHandler // nil in the untraced run
	bodies []body
	warm   []response // one per body, from the warm-up
}

// response is one served request as the client saw it.
type response struct {
	req     service.CompileRequest
	status  int
	outcome string // X-Trios-Cache
	raw     []byte
}

func startServer(r *run) (*server, error) {
	bodies, err := buildBodies()
	if err != nil {
		return nil, err
	}
	svcTracer := obs.NewTracer()
	svc := service.New(service.Config{Tracer: svcTracer})
	s := &server{svc: svc, bodies: bodies}
	var h http.Handler = svc.Handler()
	if r.tr != nil {
		s.traced = &tracedHandler{real: h, svc: svc, obsTracer: svcTracer, tr: r.tr}
		h = s.traced
	}
	s.http = httptest.NewServer(h)
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: r.procs, MaxIdleConnsPerHost: r.procs}}
	for _, b := range bodies {
		resp, err := s.post(b.json, nil, new(bytes.Buffer))
		if err == nil && resp.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.status, resp.raw)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		resp.req = b.req
		s.warm = append(s.warm, resp)
	}
	return s, nil
}

func (s *server) close() {
	s.http.Close()
	s.client.CloseIdleConnections()
	_ = s.svc.Close(context.Background()) // nothing is in flight once the HTTP server closed
}

// post sends one compile request and reads the whole response into buf;
// the response's raw bytes alias buf.
func (s *server) post(js []byte, root *live, buf *bytes.Buffer) (response, error) {
	req, err := http.NewRequest(http.MethodPost, s.http.URL+"/v1/compile", bytes.NewReader(js))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id, _ := root.id(); id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, outcome: resp.Header.Get("X-Trios-Cache"), raw: buf.Bytes()}, nil
}

// loadStats is what one closed-loop phase measured. Requests are grouped
// by the whole second of the phase they ended in; index secs holds the ones
// that ended after the phase, which no window metric uses.
type loadStats struct {
	latWindows  [][]float64 // ms per request; +Inf for a failure
	okPerSec    []float64   // successful requests
	gatesPerSec []float64   // their input gates
	ok, hits    int
	rej         int // 429 responses
	errs        []error
	samples     []response
}

func newLoadStats(secs int) *loadStats {
	return &loadStats{
		latWindows:  make([][]float64, secs+1),
		okPerSec:    make([]float64, secs+1),
		gatesPerSec: make([]float64, secs+1),
	}
}

// merge adds o's counts into st.
func (st *loadStats) merge(o *loadStats) {
	for i := range st.latWindows {
		st.latWindows[i] = append(st.latWindows[i], o.latWindows[i]...)
		st.okPerSec[i] += o.okPerSec[i]
		st.gatesPerSec[i] += o.gatesPerSec[i]
	}
	st.ok += o.ok
	st.hits += o.hits
	st.rej += o.rej
	st.errs = append(st.errs, o.errs...)
	st.samples = append(st.samples, o.samples...)
}

// whole returns st with only the whole seconds of the phase.
func (st *loadStats) whole() *loadStats {
	w := *st
	n := len(st.latWindows) - 1
	w.latWindows, w.okPerSec, w.gatesPerSec = st.latWindows[:n], st.okPerSec[:n], st.gatesPerSec[:n]
	return &w
}

// load runs the closed loop for d: procs clients, each sending its next
// request when the previous response has been read to the last byte. Each
// client starts at its own seeded offset in the body cycle and keeps its own
// counts, a few words per request, so the benchmark's bookkeeping stays
// small next to the service's memory.
func load(s *server, procs int, seed int64, miss bool, d time.Duration, tr *tracer) *loadStats {
	secs := int(d / time.Second)
	per := make([]*loadStats, procs)
	n := len(s.bodies)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		st := newLoadStats(secs)
		per[c] = st
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			off := int(uint64(splitmix(seed, uint64(c))) % uint64(n))
			var buf bytes.Buffer
			for i := 0; time.Since(t0) < d; i++ {
				bi := (i + off) % n
				b := s.bodies[bi]
				js, req := b.json, b.req
				if miss {
					js, req = b.withSeed(splitmix(seed, uint64(c+1)<<32|uint64(i)))
				}
				root := tr.root("serve.request")
				start := time.Since(t0)
				resp, err := s.post(js, root, &buf)
				end := time.Since(t0)
				root.end()
				if err == nil && resp.status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", resp.status, bytes.TrimSpace(resp.raw))
				}
				if err == nil && !miss && !bytes.Equal(resp.raw, s.warm[bi].raw) {
					err = fmt.Errorf("hit on body %d differs from the compile that warmed it", bi)
				}
				if resp.status == http.StatusTooManyRequests {
					st.rej++
				}
				sec := min(int(end/time.Second), secs)
				if err != nil {
					st.errs = append(st.errs, err)
					st.latWindows[sec] = append(st.latWindows[sec], math.Inf(1))
					continue
				}
				st.ok++
				if resp.outcome == "hit" || resp.outcome == "hit-disk" {
					st.hits++
				}
				st.latWindows[sec] = append(st.latWindows[sec], float64(end-start)/float64(time.Millisecond))
				st.okPerSec[sec]++
				st.gatesPerSec[sec] += float64(b.gates)
				if miss && i%sampleEvery == 0 && len(st.samples) < samplePerClient {
					resp.req = req
					resp.raw = bytes.Clone(resp.raw)
					st.samples = append(st.samples, resp)
				}
			}
		}(c)
	}
	wg.Wait()
	st := newLoadStats(secs)
	for _, p := range per {
		st.merge(p)
	}
	return st
}

// count records every request of the phase as an operation, and the mix
// assertion as a check.
func (st *loadStats) count(r *run, miss bool) {
	for i := 0; i < st.ok; i++ {
		r.op(nil)
	}
	for _, e := range st.errs {
		r.op(e)
	}
	r.op(checkMix(miss, st.hits, st.ok))
}

// checkMix fails a run whose cache mix is not the one its workload is
// named for: serve-hit must hit at least 99% of the time after warm-up,
// serve-miss never.
func checkMix(miss bool, hits, ok int) error {
	if ok == 0 {
		return errors.New("no successful requests")
	}
	ratio := float64(hits) / float64(ok)
	if miss && hits != 0 {
		return fmt.Errorf("serve-miss: %d of %d requests hit the cache, want none", hits, ok)
	}
	if !miss && ratio < 0.99 {
		return fmt.Errorf("serve-hit: hit ratio %.4f, want at least 0.99", ratio)
	}
	return nil
}

func runServe(r *run, miss bool) error {
	s, setupS, err := medianSetup(5, func() (*server, error) { return startServer(r) }, (*server).close)
	if err != nil {
		return err
	}
	defer s.close()
	r.set("setup_s", setupS)

	measure := r.seconds
	if r.tr != nil {
		measure /= 2 // the other half runs the traced handler
	}
	st := load(s, r.procs, r.seed, miss, measure, nil)
	st.count(r, miss)
	w := st.whole()
	r.set("ops_per_s", median(w.okPerSec))
	r.set("gates_per_s", median(w.gatesPerSec))
	r.windowedLatency(w.latWindows)
	r.note("requests", st.ok+len(st.errs))
	r.note("ok_per_second", w.okPerSec)
	r.note("hits", st.hits)
	r.note("rejected", st.rej)
	r.set("peak_rss_mib", peakRSSMiB())

	if r.tr != nil {
		s.traced.on.Store(true)
		// Another seed stream: serve-miss keys of the first half may still
		// be cached.
		traced := load(s, r.procs, r.seed^0x5bd1e995, miss, r.seconds-measure, r.tr)
		traced.count(r, miss)
		untracedOps, tracedOps := median(w.okPerSec), median(traced.whole().okPerSec)
		r.set("trace.overhead_pct", 100*(untracedOps-tracedOps)/untracedOps)
		r.set("service.hit_ratio", float64(traced.hits)/float64(max(traced.ok, 1)))
		r.set("service.rejected", float64(traced.rej))
		st.samples = append(st.samples, traced.samples...)
		probe(r, s.bodies)
	}

	// Quality of the workload's programs: the warm-up responses, evaluated
	// under the device's registry calibration.
	cal, err := device.ForDevice("johannesburg")
	if err != nil {
		return err
	}
	var cx int
	var success []float64
	for _, w := range s.warm {
		var art service.Artifact
		if err := json.Unmarshal(w.raw, &art); err != nil {
			return fmt.Errorf("warm-up response: %w", err)
		}
		c, err := qasm.Parse(art.QASM)
		if err != nil {
			return fmt.Errorf("warm-up response: %w", err)
		}
		p, _, err := noise.SuccessWithCalibration(c, cal, noise.CoherencePerQubit)
		if err != nil {
			return err
		}
		cx += art.TwoQubitGates
		success = append(success, p)
	}
	r.set("cx_total", float64(cx))
	r.set("success_nlog10", nlog10Geomean(success))

	// The returned QASM must be what the compiler emits for the same
	// resolved request: every warm-up response (which every serve-hit
	// request is checked against byte for byte) and a sample of misses.
	checked := append(append([]response(nil), s.warm...), st.samples...)
	for _, resp := range checked {
		r.op(checkResponse(r, resp, miss))
	}
	if r.tr != nil && miss {
		reportPassLayers(r)
	}
	if r.tr != nil {
		r.unattributed("serve.request", serviceLayers)
		self := layerSelf(r.tr.snapshot())
		for l := range serviceLayers {
			r.setLayer(l+"_us", self[l], time.Microsecond)
		}
		for _, l := range []string{"qasm.parse", "qasm.emit"} {
			r.setLayer(l+"_us", self[l], time.Microsecond)
		}
	}
	return nil
}

// serviceLayers are the handler steps the traced run times on the server.
var serviceLayers = map[string]bool{
	"service.decode": true, "service.resolve": true, "service.compile": true, "service.write": true,
}

// checkResponse recompiles a served request with compiler.Compile and
// requires the response's QASM to match qasm.Emit of it byte for byte. In a
// traced serve-miss run the compile is also replayed pass by pass, which
// gives the pass-layer self times of the miss path.
func checkResponse(r *run, resp response, miss bool) error {
	var art service.Artifact
	if err := json.Unmarshal(resp.raw, &art); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	spec, err := service.Resolve(resp.req)
	if err != nil {
		return err
	}
	res, err := compiler.Compile(spec.Input, spec.Graph, spec.Opts)
	if err != nil {
		return err
	}
	if err := res.Verify(); err != nil {
		return err
	}
	want, err := qasm.Emit(res.Physical)
	if err != nil {
		return err
	}
	if art.QASM != want {
		return fmt.Errorf("served QASM for key %s differs from compiler.Compile", art.Key)
	}
	if r.tr != nil && miss {
		root := r.tr.root("serve.replay")
		rep, err := replay(root, spec.Input, spec.Graph, spec.Opts)
		root.end()
		if err != nil {
			return err
		}
		if rep.QASM != want {
			return fmt.Errorf("replayed pass list emits different QASM than compiler.Compile for key %s", art.Key)
		}
		r.metrics["route.swaps"] += float64(rep.Swaps)
		r.metrics["rewrite.removed_2q"] += float64(rep.Removed2Q)
	}
	return nil
}

// probe times qasm.Parse and qasm.Emit on each body's program, the two
// steps inside service.Resolve, and counts Resolve's allocations. It runs
// after the load, with the server idle.
func probe(r *run, bodies []body) {
	for rep := 0; rep < probeReps; rep++ {
		for _, b := range bodies {
			root := r.tr.root("probe")
			sp := root.child("qasm.parse")
			c, err := qasm.Parse(b.req.QASM)
			sp.end()
			if err == nil {
				sp = root.child("qasm.emit")
				_, err = qasm.Emit(c)
				sp.end()
			}
			root.end()
			r.op(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	for rep := 0; rep < probeReps; rep++ {
		for _, b := range bodies {
			_, err := service.Resolve(b.req)
			r.op(err)
			calls++
		}
	}
	runtime.ReadMemStats(&after)
	r.set("service.resolve_allocs", float64(after.Mallocs-before.Mallocs)/float64(calls))
}

// tracedHandler serves /v1/compile in the traced run. It makes the same
// public calls as the service's own handler, in the same order, and records
// a span around each: decode, service.Resolve, Service.Compile, write.
// Until on is set, and for other routes, requests go to the real handler.
type tracedHandler struct {
	on        atomic.Bool
	real      http.Handler
	svc       *service.Service
	obsTracer *obs.Tracer
	tr        *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !h.on.Load() || req.URL.Path != "/v1/compile" {
		h.real.ServeHTTP(w, req)
		return
	}
	parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
	// Like the service's middleware, open a request span on the service's
	// tracer; the cache and flight spans inside Compile hang off it.
	ctx, reqSpan := h.obsTracer.StartSpan(req.Context(), req.Method+" "+req.URL.Path)
	w.Header().Set(obs.TraceHeader, reqSpan.TraceIDString())
	req = req.WithContext(ctx)
	code := http.StatusOK
	defer func() {
		reqSpan.SetAttr("status", strconv.Itoa(code))
		reqSpan.End()
	}()

	sp := h.tr.childOf("service.decode", parent, parent)
	var cr service.CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 4<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&cr)
	sp.end()
	if err != nil {
		code = http.StatusBadRequest
		http.Error(w, err.Error(), code)
		return
	}
	sp = h.tr.childOf("service.resolve", parent, parent)
	spec, err := service.Resolve(cr)
	sp.end()
	if err != nil {
		code = http.StatusBadRequest
		http.Error(w, err.Error(), code)
		return
	}
	sp = h.tr.childOf("service.compile", parent, parent)
	art, outcome, err := h.svc.Compile(req.Context(), spec)
	sp.end()
	if err != nil {
		code = http.StatusInternalServerError
		if errors.Is(err, service.ErrOverloaded) {
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), code)
		return
	}
	sp = h.tr.childOf("service.write", parent, parent)
	reqSpan.SetAttr("outcome", outcome)
	reqSpan.SetAttr("key", art.Key)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Trios-Cache", outcome)
	w.Header().Set("X-Trios-Key", art.Key)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(art.Body) // a failed write shows up as a client error
	sp.end()
}
