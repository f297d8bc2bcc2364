// Streaming facade: StreamCompile runs the compiler's own pass list over
// bounded gate windows, with internal/stream as the windowing driver. The
// pass list is cut into three stages — the front passes, placement and
// routing, and the rest of the back passes — each with its own PassContext,
// so the stages can run pipelined. The routing passes keep persistent
// sessions across windows, which makes the streamed output byte-identical
// to qasm.Emit(Compile(...).Physical) with Optimize off, for any window
// size; with Optimize on, per-window saturation differs from global
// saturation and the output is simulation-equivalent instead.
package compiler

import (
	"context"
	"fmt"
	"io"
	"slices"

	"trios/internal/circuit"
	"trios/internal/obs"
	"trios/internal/stream"
	"trios/internal/topo"
)

// StreamOptions configures a streaming compile: the standard Options plus
// the windowing knobs.
type StreamOptions struct {
	Options
	// Window is the gate-window size (stream.DefaultWindow when zero, at
	// most stream.MaxWindow).
	Window int
	// Parallel runs the pipeline stages as a channel-connected worker
	// chain; output is bit-identical to the serial driver.
	Parallel bool
}

// Check reports why o cannot run through StreamCompile, or nil. Only the
// Conventional and Trios pipelines with the direct router are streamable:
// stochastic/lookahead routing and group clustering are layer-based and
// need the whole circuit.
func (o StreamOptions) Check() error {
	if o.Pipeline != Conventional && o.Pipeline != TriosPipeline {
		return fmt.Errorf("compiler: pipeline %v is not streamable (only baseline and trios are)", o.Pipeline)
	}
	if o.Router != RouteDirect {
		return fmt.Errorf("compiler: router %v is not streamable (layer-based routers need the whole circuit)", o.Router)
	}
	return stream.CheckWindow(o.Window)
}

// StreamResult summarizes a streaming compile. It mirrors Result's mapping
// and metric fields but carries no circuits: the program went to the output
// writer, window by window.
type StreamResult struct {
	// InputQubits is the declared input register; NumQubits the device
	// register of the emitted program.
	InputQubits  int
	NumQubits    int
	InputGates   int
	EmittedGates int
	Windows      int
	SwapsAdded   int
	Initial      []int
	Final        []int
	// ScheduledDuration is the ASAP makespan (us) of the emitted program,
	// accumulated incrementally across windows.
	ScheduledDuration float64
	// Passes holds one metric per pass of the pipeline, summed over all
	// windows.
	Passes []PassMetric
	// CostModel names the cost model that drove layout and routing.
	CostModel string
}

// streamStage runs a slice of the pass list on each window over a
// PassContext of its own, summing each pass's metric across windows.
type streamStage struct {
	ctx     *PassContext
	pm      *PassManager
	metrics []PassMetric
}

func (s *streamStage) run(c *circuit.Circuit) (*circuit.Circuit, error) {
	s.ctx.Circuit, s.ctx.Metrics = c, s.ctx.Metrics[:0]
	if err := s.pm.Run(s.ctx); err != nil {
		return nil, err
	}
	if s.metrics == nil {
		s.metrics = slices.Clone(s.ctx.Metrics)
		return s.ctx.Circuit, nil
	}
	for i, m := range s.ctx.Metrics {
		sum := &s.metrics[i]
		sum.Duration += m.Duration
		sum.GatesBefore += m.GatesBefore
		sum.GatesAfter += m.GatesAfter
		sum.TwoQubitBefore += m.TwoQubitBefore
		sum.TwoQubitAfter += m.TwoQubitAfter
	}
	return s.ctx.Circuit, nil
}

// StreamCompile compiles QASM from src to dst in bounded gate windows.
// Restrictions vs Compile: only options that pass StreamOptions.Check are
// streamable; templates are bypassed (fragment matching needs the whole
// input); no fidelity estimate is computed (it is a whole-circuit
// property). Greedy placement sees only the first window's interaction
// graph. Per-window trace spans are recorded under the span in ctx, if any.
func StreamCompile(ctx context.Context, src io.Reader, dst io.Writer, g *topo.Graph, opts StreamOptions) (*StreamResult, error) {
	if err := opts.Check(); err != nil {
		return nil, err
	}
	cm, err := resolveCost(opts.Options, g)
	if err != nil {
		return nil, err
	}
	passes, err := PipelinePasses(opts.Options)
	if err != nil {
		return nil, err
	}
	passes = slices.DeleteFunc(passes, func(p Pass) bool { return p.Name() == "stats:fidelity" })
	place := slices.IndexFunc(passes, func(p Pass) bool { return p.Name() == "layout:place" })
	cuts := []struct {
		name   string
		passes []Pass
	}{
		{"front", passes[:place]},
		{"route", passes[place : place+2]}, // layout:place, route:main
		{"back", passes[place+2:]},
	}
	// Build the distance oracle up front so routing runs on table lookups
	// and the one-time cost is not attributed to the first window.
	g.EnsureOracle()
	cfg := stream.Config{Graph: g, Window: opts.Window, Parallel: opts.Parallel, Span: obs.SpanFromContext(ctx)}
	stages := make([]*streamStage, len(cuts))
	for i, cut := range cuts {
		st := &streamStage{
			ctx: &PassContext{Graph: g, Opts: opts.Options, Cost: cm},
			pm:  NewPassManager(opts.Pipeline.String()+"-"+cut.name, cut.passes...),
		}
		stages[i] = st
		cfg.Stages = append(cfg.Stages, stream.Stage{Name: cut.name, Run: st.run})
	}
	res, err := stream.Compile(ctx, src, dst, cfg)
	if err != nil {
		return nil, err
	}
	out := &StreamResult{
		InputQubits:       res.InputQubits,
		NumQubits:         res.NumQubits,
		InputGates:        res.InputGates,
		EmittedGates:      res.EmittedGates,
		Windows:           res.Windows,
		ScheduledDuration: res.ScheduledDuration,
		CostModel:         cm.Name(),
	}
	// Finish: each stage's placement movement composes onto the previous
	// one's (in Six mode the back stage's fixup router moves qubits on top
	// of the main route).
	for _, st := range stages {
		pc := st.ctx
		out.SwapsAdded += pc.SwapsAdded
		out.Passes = append(out.Passes, st.metrics...)
		if pc.Init != nil {
			out.Initial = pc.Init.VirtualToPhys()
		}
		switch {
		case pc.Final == nil:
		case out.Final == nil:
			out.Final = pc.Final.VirtualToPhys()
		default:
			for v, p := range out.Final {
				out.Final[v] = pc.Final.Phys(p)
			}
		}
	}
	return out, nil
}
