package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/device"
	"trios/internal/qasm"
	"trios/internal/service"
	"trios/internal/topo"
)

// The stream-cliffordt workload compiles a generated 16-qubit Clifford+T
// stream of 10^6 gates with compiler.StreamCompile under the options an
// all-defaults POST /v1/compile/stream resolves to (trios pipeline, direct
// router, greedy placement, default window, pipelined stages), writing the
// program to a sink that only checksums it.
const (
	streamQubits   = 16
	streamGates    = 1_000_000
	streamTopology = "johannesburg"
	// prefixPrograms short streams of prefixGates gates each, streamed in
	// windows of prefixWindow gates, must equal the monolithic compile.
	// Their estimated success is the workload's quality figure: the whole
	// output's underflows a float64. They are generated from fixed seeds
	// 1..prefixPrograms, not from the workload seed: the estimate of a
	// 250-gate program swings by several percent from draw to draw, while
	// over the same programs it moves only when the compiler does.
	prefixPrograms = 32
	prefixGates    = 250
	prefixWindow   = 64
	// warmGates is the stream compiled once during set-up.
	warmGates = 20_000
	// chunk is how many gates the traced codec probe reads and emits per
	// span.
	chunk = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the output sink: it keeps a running CRC of everything written
// and discards the bytes.
type checksum struct {
	crc uint32
	n   int64
}

func (c *checksum) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, castagnoli, p)
	c.n += int64(len(p))
	return len(p), nil
}

type streamSetup struct {
	g    *topo.Graph
	opts compiler.StreamOptions
}

func setupStream(seed int64) (streamSetup, error) {
	g, err := topo.ByName(streamTopology)
	if err != nil {
		return streamSetup{}, err
	}
	g.EnsureOracle()
	opts, err := service.DefaultCompileOptions()
	if err != nil {
		return streamSetup{}, err
	}
	s := streamSetup{g: g, opts: compiler.StreamOptions{Options: opts, Parallel: true}}
	// One short compile fills the lazily built tables before timing.
	_, err = compiler.StreamCompile(context.Background(), benchmarks.StreamCliffordT(streamQubits, warmGates, seed), io.Discard, g, s.opts)
	return s, err
}

func runStream(r *run) error {
	s, setupS, err := medianSetup(5, func() (streamSetup, error) { return setupStream(r.seed) }, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	ctx := context.Background()

	compile := func(opts compiler.StreamOptions) (*compiler.StreamResult, checksum, float64, error) {
		var sink checksum
		t := time.Now()
		res, err := compiler.StreamCompile(ctx, benchmarks.StreamCliffordT(streamQubits, streamGates, r.seed), &sink, s.g, opts)
		return res, sink, time.Since(t).Seconds(), err
	}
	measure := r.seconds
	if r.tr != nil {
		measure /= 2 // the other half compiles under a root span
	}
	var (
		walls, lat []float64
		first      *compiler.StreamResult
		want       checksum
	)
	for deadline := time.Now().Add(measure); len(walls) == 0 || time.Now().Before(deadline); {
		res, sink, wall, err := compile(s.opts)
		if err == nil && res.InputGates != streamGates {
			err = fmt.Errorf("stream compile read %d gates, want %d", res.InputGates, streamGates)
		}
		if err == nil && first != nil && sink != want {
			err = errors.New("stream compile output differs from the first compile of the run")
		}
		r.op(err)
		if err != nil {
			return err
		}
		if first == nil {
			first, want = res, sink
		}
		walls = append(walls, wall)
		lat = append(lat, wall*1000)
	}
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(streamGates) / w
	}
	r.set("ops_per_s", 1/median(walls))
	r.set("gates_per_s", median(rates))
	r.latency(lat)
	r.note("stream_compiles", len(walls))
	r.set("peak_rss_mib", peakRSSMiB())
	r.set("stream.windows", float64(first.Windows))
	r.set("stream.swaps", float64(first.SwapsAdded))

	if r.tr != nil {
		if err := traceStream(r, s, compile, median(rates)); err != nil {
			return err
		}
	}

	// Checks, outside the timed region: the same compile, re-read with
	// qasm.Reader, must checksum the same and put every cx on a coupler.
	cx, err := checkStreamOutput(ctx, s, r.seed, want)
	r.op(err)
	r.set("cx_total", float64(cx))
	var success []float64
	for k := 0; k < prefixPrograms; k++ {
		p, err := checkStreamPrefix(s, int64(k+1))
		r.op(err)
		success = append(success, p)
	}
	r.set("success_nlog10", nlog10Geomean(success))
	return nil
}

// checkStreamOutput compiles the workload's stream once more into a pipe,
// re-reads the output gate by gate, and returns its cx count.
func checkStreamOutput(ctx context.Context, s streamSetup, seed int64, want checksum) (int, error) {
	pr, pw := io.Pipe()
	type verdict struct {
		cx  int
		sum checksum
		err error
	}
	done := make(chan verdict, 1)
	go func() {
		var v verdict
		rd := qasm.NewReader(io.TeeReader(pr, &v.sum))
		for {
			g, err := rd.NextGate()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				v.err = err
				break
			}
			if g.Name == circuit.CX {
				v.cx++
				if !s.g.Connected(g.Qubits[0], g.Qubits[1]) {
					v.err = fmt.Errorf("streamed cx(%d,%d) is not on a coupler of %s", g.Qubits[0], g.Qubits[1], s.g.Name())
					break
				}
			}
		}
		// Drain whatever is left so the compile never blocks on the pipe.
		_, _ = io.Copy(&v.sum, pr)
		done <- v
	}()
	_, err := compiler.StreamCompile(ctx, benchmarks.StreamCliffordT(streamQubits, streamGates, seed), pw, s.g, s.opts)
	pw.CloseWithError(err)
	v := <-done
	switch {
	case err != nil:
		return 0, err
	case v.err != nil:
		return 0, v.err
	case v.sum != want:
		return 0, errors.New("re-read stream output differs from the measured compiles")
	}
	return v.cx, nil
}

// checkStreamPrefix streams a short program with optimize off, in several
// windows, and requires
// the output to equal qasm.Emit of compiler.Compile from the same initial
// placement. The monolithic compile carries the device's registry
// calibration under the uniform cost model, which leaves its output
// unchanged and yields the estimated success returned.
func checkStreamPrefix(s streamSetup, seed int64) (float64, error) {
	src, err := io.ReadAll(benchmarks.StreamCliffordT(streamQubits, prefixGates, seed))
	if err != nil {
		return 0, err
	}
	var streamed bytes.Buffer
	sopts := s.opts
	sopts.Window = prefixWindow
	res, err := compiler.StreamCompile(context.Background(), bytes.NewReader(src), &streamed, s.g, sopts)
	if err != nil {
		return 0, err
	}
	c, err := qasm.Parse(string(src))
	if err != nil {
		return 0, err
	}
	cal, err := device.ForDevice(streamTopology)
	if err != nil {
		return 0, err
	}
	opts := s.opts.Options
	opts.InitialLayout = res.Initial
	opts.Calibration, opts.CostModel = cal, device.Uniform{}
	mono, err := compiler.Compile(c, s.g, opts)
	if err != nil {
		return 0, err
	}
	want, err := qasm.Emit(mono.Physical)
	if err != nil {
		return 0, err
	}
	if streamed.String() != want {
		return 0, fmt.Errorf("streamed %d-gate program differs from the monolithic compile", prefixGates)
	}
	return mono.EstimatedSuccess, nil
}

// traceStream compiles under a root span for the other half of the run,
// then times the serial stage loop and the QASM stream codec on the same
// input.
func traceStream(r *run, s streamSetup, compile func(compiler.StreamOptions) (*compiler.StreamResult, checksum, float64, error), untracedRate float64) error {
	var rates []float64
	for deadline := time.Now().Add(r.seconds - r.seconds/2); len(rates) == 0 || time.Now().Before(deadline); {
		root := r.tr.root("stream.compile")
		_, _, wall, err := compile(s.opts)
		root.end()
		r.op(err)
		if err != nil {
			return err
		}
		rates = append(rates, float64(streamGates)/wall)
	}
	r.set("trace.overhead_pct", 100*(untracedRate-median(rates))/untracedRate)
	r.unattributed("stream.compile", nil)

	serial := s.opts
	serial.Parallel = false
	_, _, serialWall, err := compile(serial)
	r.op(err)
	if err != nil {
		return err
	}
	r.set("stream.pipeline_speedup", serialWall*untracedRate/streamGates)

	// The codec alone: read the generated program gate by gate, then emit
	// the gates, a chunk per span.
	src, err := io.ReadAll(benchmarks.StreamCliffordT(streamQubits, streamGates, r.seed))
	if err != nil {
		return err
	}
	rd := qasm.NewReader(bytes.NewReader(src))
	var em *qasm.Emitter
	gates := make([]circuit.Gate, 0, chunk)
	var readNs, emitNs, total float64
	for eof := false; !eof; {
		gates = gates[:0]
		sp := r.tr.root("qasm.stream_read")
		for len(gates) < chunk {
			g, err := rd.NextGate()
			if errors.Is(err, io.EOF) {
				eof = true
				break
			}
			if err != nil {
				return err
			}
			gates = append(gates, g)
		}
		sp.end()
		if em == nil {
			if em, err = qasm.NewEmitter(io.Discard, rd.NumQubits(), rd.HasCreg()); err != nil {
				return err
			}
		}
		sp2 := r.tr.root("qasm.stream_emit")
		for _, g := range gates {
			if err := em.EmitGate(g); err != nil {
				return err
			}
		}
		err := em.Flush()
		sp2.end()
		if err != nil {
			return err
		}
		total += float64(len(gates))
		readNs += float64(sp.s.dur())
		emitNs += float64(sp2.s.dur())
	}
	r.set("qasm.stream_read_mgates_per_s", total/readNs*1e3)
	r.set("qasm.stream_emit_mgates_per_s", total/emitNs*1e3)
	return nil
}
