package compiler

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"trios/internal/circuit"
	"trios/internal/decompose"
	"trios/internal/device"
	"trios/internal/qasm"
	"trios/internal/sim"
	"trios/internal/stream"
	"trios/internal/topo"
)

// mixedCircuit builds a deterministic mixed workload (1q rotations, CNOTs,
// Toffolis, barriers, trailing measures) big enough that every tested
// window size actually splits it.
func mixedCircuit(n, gates int, seed int64) *circuit.Circuit {
	return mixedCircuitOpt(n, gates, seed, true)
}

func mixedCircuitOpt(n, gates int, seed int64, measures bool) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for len(c.Gates) < gates-n {
		switch k := rng.Intn(12); {
		case k < 3:
			c.H(rng.Intn(n))
		case k < 5:
			c.RZ(float64(rng.Intn(7)+1)/7.0, rng.Intn(n))
		case k < 6:
			c.T(rng.Intn(n))
		case k < 9:
			q := rng.Perm(n)
			c.CX(q[0], q[1])
		case k < 11:
			q := rng.Perm(n)
			c.CCX(q[0], q[1], q[2])
		default:
			c.Append(circuit.Gate{Name: circuit.Barrier, Qubits: []int{rng.Intn(n)}})
		}
	}
	if measures {
		for q := 0; q < n; q++ {
			c.Measure(q)
		}
	}
	return c
}

// commutingRunCircuit places a long run of mutually commuting gates (CZs
// and RZs on overlapping qubits) so that small windows split the commuting
// region — the optimizer's worst case for windowed divergence.
func commutingRunCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	c.CX(0, 1)
	for i := 0; i < 150; i++ {
		c.RZ(0.3, i%n)
		c.CZ(i%n, (i+1)%n)
	}
	c.CCX(0, 1, 2)
	for i := 0; i < 30; i++ {
		c.T(i % n)
	}
	return c
}

// streamGolden compiles src both ways and requires byte-identity.
func streamGolden(t *testing.T, src string, g *topo.Graph, opts StreamOptions) *StreamResult {
	t.Helper()
	input, err := qasm.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	mono, err := Compile(input, g, opts.Options)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want, err := qasm.Emit(mono.Physical)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	var out bytes.Buffer
	res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
	if err != nil {
		t.Fatalf("StreamCompile: %v", err)
	}
	if out.String() != want {
		i := 0
		for i < len(want) && i < out.Len() && want[i] == out.String()[i] {
			i++
		}
		t.Fatalf("streamed output diverges from monolithic at byte %d (window=%d parallel=%v):\n...%q...",
			i, opts.Window, opts.Parallel, clip(want, i))
	}
	if res.SwapsAdded != mono.SwapsAdded {
		t.Fatalf("SwapsAdded %d != monolithic %d", res.SwapsAdded, mono.SwapsAdded)
	}
	if !reflect.DeepEqual(res.Initial, mono.Initial) || !reflect.DeepEqual(res.Final, mono.Final) {
		t.Fatalf("layout handoff diverged: initial %v vs %v, final %v vs %v",
			res.Initial, mono.Initial, res.Final, mono.Final)
	}
	if res.EmittedGates != len(mono.Physical.Gates) {
		t.Fatalf("EmittedGates %d != monolithic %d", res.EmittedGates, len(mono.Physical.Gates))
	}
	return res
}

func clip(s string, i int) string {
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestStreamByteIdenticalAcrossDevices is the window-boundary property
// test with optimization off: for every registry device, window sizes that
// split the circuit at many different boundaries (including mid-commuting-
// region), and both pipeline shapes, the stitched streaming output must be
// byte-identical to the monolithic compile.
func TestStreamByteIdenticalAcrossDevices(t *testing.T) {
	c := mixedCircuit(18, 10000, 11)
	src, err := qasm.Emit(c)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	for _, name := range topo.Names() {
		g, err := topo.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for _, window := range []int{64, 1024, 8192} {
			opts := StreamOptions{Window: window}
			opts.Pipeline = TriosPipeline
			opts.Seed = 1
			streamGolden(t, src, g, opts)
		}
	}
}

// TestStreamByteIdenticalMatrix drills one device through the full option
// matrix: both pipelines, the Six-mode fixup session, both seeds, serial
// and pipelined drivers, every window size.
func TestStreamByteIdenticalMatrix(t *testing.T) {
	src, err := qasm.Emit(mixedCircuit(18, 10000, 7))
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Johannesburg()
	type shape struct {
		pipeline Pipeline
		mode     decompose.ToffoliMode
	}
	shapes := []shape{
		{Conventional, decompose.Auto},
		{TriosPipeline, decompose.Auto},
		{TriosPipeline, decompose.Six},
		{TriosPipeline, decompose.Eight},
	}
	for _, sh := range shapes {
		for _, seed := range []int64{1, 5} {
			for _, window := range []int{64, 1024, 8192} {
				for _, parallel := range []bool{false, true} {
					opts := StreamOptions{Window: window, Parallel: parallel}
					opts.Pipeline = sh.pipeline
					opts.Mode = sh.mode
					opts.Seed = seed
					streamGolden(t, src, g, opts)
				}
			}
		}
	}
}

// TestStreamSplitCommutingRegion pins the nastiest boundary: a window size
// that cuts a long commuting run. Optimize off must stay byte-identical;
// optimize on (where windowed saturation legitimately differs from global
// saturation) must stay simulation-equivalent to the logical input.
func TestStreamSplitCommutingRegion(t *testing.T) {
	logical := commutingRunCircuit(6)
	src, err := qasm.Emit(logical)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Line(8)
	for _, window := range []int{64, 1024} {
		opts := StreamOptions{Window: window}
		opts.Pipeline = TriosPipeline
		opts.Seed = 3
		streamGolden(t, src, g, opts)

		opts.Optimize = true
		var out bytes.Buffer
		res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
		if err != nil {
			t.Fatalf("StreamCompile optimize: %v", err)
		}
		physical, err := qasm.Parse(out.String())
		if err != nil {
			t.Fatalf("parse streamed output: %v", err)
		}
		n := logical.NumQubits
		ok, err := sim.CompiledEquivalent(logical, physical, g.NumQubits(), res.Initial[:n], res.Final[:n], 3, 17)
		if err != nil {
			t.Fatalf("CompiledEquivalent: %v", err)
		}
		if !ok {
			t.Fatalf("optimized streamed output (window=%d) is not equivalent to the logical circuit", window)
		}
	}
}

// TestStreamOptimizedEquivalence checks the optimize-on arm across both
// pipelines and seeds on a mixed circuit: the streamed physical program
// must implement the logical input under its reported initial/final maps.
func TestStreamOptimizedEquivalence(t *testing.T) {
	logical := mixedCircuitOpt(8, 400, 23, false)
	src, err := qasm.Emit(logical)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Grid(3, 3)
	for _, pipeline := range []Pipeline{Conventional, TriosPipeline} {
		for _, seed := range []int64{2, 9} {
			opts := StreamOptions{Window: 64}
			opts.Pipeline = pipeline
			opts.Seed = seed
			opts.Optimize = true
			var out bytes.Buffer
			res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
			if err != nil {
				t.Fatalf("StreamCompile: %v", err)
			}
			physical, err := qasm.Parse(out.String())
			if err != nil {
				t.Fatalf("parse streamed output: %v", err)
			}
			n := logical.NumQubits
			ok, err := sim.CompiledEquivalent(logical, physical, g.NumQubits(), res.Initial[:n], res.Final[:n], 2, 31)
			if err != nil {
				t.Fatalf("CompiledEquivalent: %v", err)
			}
			if !ok {
				t.Fatalf("pipeline=%v seed=%d: optimized streamed output not equivalent", pipeline, seed)
			}
		}
	}
}

// TestStreamGreedyPlacementPinned: greedy placement sees only the first
// window, so full byte-identity holds once the monolithic arm is pinned to
// the placement streaming chose (and unpinned when one window holds the
// whole circuit).
func TestStreamGreedyPlacementPinned(t *testing.T) {
	src, err := qasm.Emit(mixedCircuit(16, 3000, 13))
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Grid5x4()

	// One window >= circuit: placement sees everything, unpinned identity.
	one := StreamOptions{Window: 1 << 20}
	one.Pipeline = TriosPipeline
	one.Placement = PlaceGreedy
	one.Seed = 1
	streamGolden(t, src, g, one)

	// Many windows: pin the monolithic arm to streaming's placement.
	var out bytes.Buffer
	opts := StreamOptions{Window: 256}
	opts.Pipeline = TriosPipeline
	opts.Placement = PlaceGreedy
	opts.Seed = 1
	res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
	if err != nil {
		t.Fatalf("StreamCompile: %v", err)
	}
	input, err := qasm.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pinned := opts.Options
	pinned.Placement = PlaceIdentity
	pinned.InitialLayout = res.Initial
	mono, err := Compile(input, g, pinned)
	if err != nil {
		t.Fatalf("Compile pinned: %v", err)
	}
	want, err := qasm.Emit(mono.Physical)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	if out.String() != want {
		t.Fatal("windowed greedy compile diverged from the pinned monolithic compile")
	}
}

// TestStreamRejectsUnstreamable locks the facade's scope: group routing
// and layer-based routers need the whole circuit and must be refused.
func TestStreamRejectsUnstreamable(t *testing.T) {
	g := topo.Line(4)
	src := "qreg q[2];\ncx q[0], q[1];\n"
	bad := []StreamOptions{
		func() StreamOptions { o := StreamOptions{}; o.Pipeline = GroupsPipeline; return o }(),
		func() StreamOptions { o := StreamOptions{}; o.Router = RouteStochastic; return o }(),
		func() StreamOptions { o := StreamOptions{}; o.Router = RouteLookahead; return o }(),
	}
	for _, opts := range bad {
		if _, err := StreamCompile(context.Background(), strings.NewReader(src), &bytes.Buffer{}, g, opts); err == nil {
			t.Fatalf("StreamCompile accepted unstreamable options %+v", opts)
		}
	}
}

// TestStreamRejectsRegisterGrowth: strict register bounds are a streaming
// precondition (later growth would retroactively change early windows).
func TestStreamRejectsRegisterGrowth(t *testing.T) {
	src := "qreg q[2];\nh q[0];\nh q[7];\n"
	opts := StreamOptions{Window: 1}
	if _, err := StreamCompile(context.Background(), strings.NewReader(src), &bytes.Buffer{}, topo.Line(10), opts); err == nil {
		t.Fatal("StreamCompile accepted a register-growing stream")
	} else if !strings.Contains(err.Error(), "strict register bounds") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestStreamRejectsOversizedWindow: a window above stream.MaxWindow is
// refused up front rather than sized into an allocation.
func TestStreamRejectsOversizedWindow(t *testing.T) {
	opts := StreamOptions{Window: stream.MaxWindow + 1}
	if _, err := StreamCompile(context.Background(), strings.NewReader("qreg q[2];\ncx q[0], q[1];\n"), &bytes.Buffer{}, topo.Line(4), opts); err == nil {
		t.Fatal("StreamCompile accepted a window above stream.MaxWindow")
	}
}

// TestStreamNoiseAwareSixMode streams under a calibration's noise cost
// model in Six mode, pipelined, so the route and back stages resolve
// routers from the shared cost model concurrently; the output must still
// equal the monolithic compile.
func TestStreamNoiseAwareSixMode(t *testing.T) {
	src, err := qasm.Emit(mixedCircuit(16, 2000, 19))
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	cal, err := device.ForDevice("johannesburg")
	if err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{Window: 64, Parallel: true}
	opts.Pipeline, opts.Mode, opts.Seed, opts.Calibration = TriosPipeline, decompose.Six, 4, cal
	res := streamGolden(t, src, topo.Johannesburg(), opts)
	if !strings.HasPrefix(res.CostModel, "noise:") {
		t.Fatalf("cost model %q, want the calibration's noise model", res.CostModel)
	}
}
