// Pass-manager engine: the two pipeline shapes of compiler.go are expressed
// as ordered lists of named, instrumented passes over a shared PassContext.
// Composition replaces the former hard-coded pipeline functions, so new
// pipeline variants are assembled from the same pass vocabulary (decompose,
// layout, route, optimize, schedule, stats) instead of new monoliths, and
// every compilation records per-pass wall-clock and gate-count metrics.
package compiler

import (
	"context"
	"fmt"
	"time"

	"trios/internal/circuit"
	"trios/internal/decompose"
	"trios/internal/device"
	"trios/internal/layout"
	"trios/internal/noise"
	"trios/internal/optimize"
	"trios/internal/rewrite"
	"trios/internal/route"
	"trios/internal/topo"
)

// PassContext carries one compilation through a pass pipeline: the working
// circuit, the device graph, the mapping bookkeeping that routing passes
// maintain, and the per-pass metrics the manager accumulates.
type PassContext struct {
	// Ctx, when non-nil, makes the pipeline cancellation-aware: the manager
	// checks it between passes and aborts with the context's error instead of
	// starting the next stage. Individual passes are not interrupted — a
	// cancelled compilation finishes its current pass and stops at the next
	// boundary, so partially-transformed circuits never escape.
	Ctx context.Context
	// Graph is the target coupling graph. It is read-only and may be shared
	// across concurrent compilations.
	Graph *topo.Graph
	// Opts is the configuration the pipeline was built from.
	Opts Options
	// Cost is the resolved cost model (see Options.costModel), fixed once
	// per compilation so the layout, routing, and fixup passes all score
	// against the same memoized tables.
	Cost device.CostModel
	// Circuit is the working circuit; passes replace it as they transform
	// the program. Passes must treat the incoming circuit as immutable (it
	// may be shared with concurrent compilations via the batch front cache).
	Circuit *circuit.Circuit
	// Init is the initial virtual->physical placement, set by the layout
	// pass; Final tracks the placement after routing SWAPs.
	Init  *layout.Layout
	Final *layout.Layout
	// SwapsAdded accumulates routing SWAPs (before 3-CX expansion).
	SwapsAdded int
	// mainRoute and fixupRoute are the incremental sessions of the
	// window-aware routing passes, begun on their first Run; fixupBase is
	// the placement the fixup movement composes onto.
	mainRoute, fixupRoute *route.Session
	fixupBase             *layout.Layout
	// Metrics collects one entry per executed pass.
	Metrics []PassMetric
	// EstimatedSuccess and Makespan are filled by the fidelity pass when the
	// compilation carries a calibration.
	EstimatedSuccess float64
	Makespan         float64
}

// PassMetric records what one pass did: wall-clock cost and the circuit's
// size before and after, so pipeline hot spots and gate-count trajectories
// are observable without re-instrumenting callers.
type PassMetric struct {
	Pass           string        `json:"pass"`
	Duration       time.Duration `json:"duration_ns"`
	GatesBefore    int           `json:"gates_before"`
	GatesAfter     int           `json:"gates_after"`
	TwoQubitBefore int           `json:"two_qubit_before"`
	TwoQubitAfter  int           `json:"two_qubit_after"`
	// Cached marks a front-pass metric reused from the batch engine's
	// deduplication cache: the pass did not run for this compilation, so
	// aggregations should count cached entries zero times (the job that
	// populated the cache carries the uncached metric).
	Cached bool `json:"cached,omitempty"`
}

// Pass is one named stage of a compilation pipeline. Run reads the current
// circuit c (identical to ctx.Circuit) and stores its transformed output and
// any mapping-state updates back into ctx.
type Pass interface {
	Name() string
	Run(ctx *PassContext, c *circuit.Circuit) error
}

// passFunc adapts a function to the Pass interface.
type passFunc struct {
	name string
	fn   func(ctx *PassContext, c *circuit.Circuit) error
}

func (p passFunc) Name() string { return p.name }

func (p passFunc) Run(ctx *PassContext, c *circuit.Circuit) error { return p.fn(ctx, c) }

// NewPass wraps a function as a named Pass.
func NewPass(name string, fn func(ctx *PassContext, c *circuit.Circuit) error) Pass {
	return passFunc{name: name, fn: fn}
}

// costModel returns ctx.Cost, resolving it from the options on first use so
// pipelines driven outside compileFrom (tests, custom pass lists) need no
// setup. Resolution is sticky: every pass of one compilation scores against
// the same model instance and its memoized tables.
func (ctx *PassContext) costModel() device.CostModel {
	if ctx.Cost == nil {
		ctx.Cost = ctx.Opts.costModel()
	}
	return ctx.Cost
}

// routerWeights unpacks a cost model into the weight function and memoized
// oracle a router's fields take (both nil under Uniform).
func routerWeights(cm device.CostModel, g *topo.Graph) (func(a, b int) float64, *topo.WeightedOracle) {
	w := cm.Weight()
	if w == nil {
		return nil, nil
	}
	return w, cm.Oracle(g)
}

// PassManager runs an ordered list of passes over a PassContext, timing each
// one and recording circuit-size deltas.
type PassManager struct {
	label  string
	passes []Pass
}

// NewPassManager builds a manager from a pass list. The label names the
// pipeline in error messages.
func NewPassManager(label string, passes ...Pass) *PassManager {
	return &PassManager{label: label, passes: passes}
}

// Passes returns the manager's pass list (for inspection and composition).
func (pm *PassManager) Passes() []Pass { return pm.passes }

// Run executes every pass in order, appending one PassMetric per pass to
// ctx.Metrics. The first failing pass aborts the pipeline, as does
// cancellation of ctx.Ctx at any pass boundary.
func (pm *PassManager) Run(ctx *PassContext) error {
	before := ctx.Circuit.CollectStats()
	for _, p := range pm.passes {
		if ctx.Ctx != nil {
			if err := ctx.Ctx.Err(); err != nil {
				return fmt.Errorf("compiler: %s pipeline cancelled before pass %s: %w", pm.label, p.Name(), err)
			}
		}
		start := time.Now()
		if err := p.Run(ctx, ctx.Circuit); err != nil {
			return fmt.Errorf("compiler: %s pipeline, pass %s: %w", pm.label, p.Name(), err)
		}
		after := ctx.Circuit.CollectStats()
		ctx.Metrics = append(ctx.Metrics, PassMetric{
			Pass:           p.Name(),
			Duration:       time.Since(start),
			GatesBefore:    before.Total,
			GatesAfter:     after.Total,
			TwoQubitBefore: before.TwoQubit,
			TwoQubitAfter:  after.TwoQubit,
		})
		before = after
	}
	return nil
}

// ---- Decompose passes ----

// DecomposeToffoliAll lowers every Toffoli-class gate up front with the given
// mode — the conventional pipeline's first stage.
func DecomposeToffoliAll(mode decompose.ToffoliMode) Pass {
	return NewPass(fmt.Sprintf("decompose:toffoli-all(%v)", mode), func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.ToffoliAll(c, mode)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// DecomposeKeepToffoli lowers everything except Toffolis, which stay intact
// for trio-aware mapping and routing — the Trios pipeline's first stage.
func DecomposeKeepToffoli() Pass {
	return NewPass("decompose:keep-toffoli", func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.KeepToffoli(c)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// DecomposeKeepMultiQubit keeps any-arity multi-qubit gates intact for group
// routing — the experimental Groups pipeline's first stage.
func DecomposeKeepMultiQubit() Pass {
	return NewPass("decompose:keep-multiqubit", func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.KeepMultiQubit(c)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// MappingAwarePass runs the second, placement-aware Toffoli decomposition.
func MappingAwarePass(mode decompose.ToffoliMode) Pass {
	return NewPass(fmt.Sprintf("decompose:mapping-aware(%v)", mode), func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.MappingAware(c, ctx.Graph, mode)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// ExpandMCXPass expands routed MCX gates in place, borrowing nearby wires.
func ExpandMCXPass() Pass {
	return NewPass("decompose:expand-mcx", func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.ExpandMCXNearby(c, ctx.Graph)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// LowerPass rewrites the circuit into the {u1,u2,u3,cx} basis.
func LowerPass() Pass {
	return NewPass("lower:basis", func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.LowerToBasis(c)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// ---- Layout pass ----

// PlacePass computes the initial virtual->physical placement from
// ctx.Opts (explicit layout, greedy, random, or identity) using the current
// circuit's interaction structure, and seeds Final with a copy of it. It
// runs only while ctx.Init is unset, so a windowed compile places from its
// first window and keeps that placement.
func PlacePass() Pass {
	return NewPass("layout:place", func(ctx *PassContext, c *circuit.Circuit) error {
		if ctx.Init != nil {
			return nil
		}
		init, err := initialLayout(c, ctx.Graph, ctx.Opts, ctx.costModel())
		if err != nil {
			return err
		}
		ctx.Init = init
		ctx.Final = init.Copy()
		return nil
	})
}

// ---- Route passes ----

// routeWindow routes c from initial with the router newRouter builds and
// returns the placement reached, replacing ctx.Circuit with the routed
// gates and counting the SWAPs added. A router that can route incrementally
// (route.Baseline, route.Trios) is begun once into *sess and fed c on every
// call, so calling routeWindow once per window routes exactly as one call
// over the whole circuit; any other router routes c whole.
func routeWindow(ctx *PassContext, sess **route.Session, newRouter func() (route.Router, error), initial *layout.Layout, c *circuit.Circuit) (*layout.Layout, error) {
	if *sess == nil {
		router, err := newRouter()
		if err != nil {
			return nil, err
		}
		sr, ok := router.(interface {
			Begin(*topo.Graph, *layout.Layout) (*route.Session, error)
		})
		if !ok {
			routed, err := router.Route(c, ctx.Graph, initial)
			if err != nil {
				return nil, err
			}
			ctx.Circuit = routed.Circuit
			ctx.SwapsAdded += routed.SwapsAdded
			return routed.Final, nil
		}
		if *sess, err = sr.Begin(ctx.Graph, initial); err != nil {
			return nil, err
		}
	}
	ss := *sess
	swaps := ss.Swaps()
	if err := ss.Feed(c.Gates); err != nil {
		return nil, err
	}
	ctx.Circuit = &circuit.Circuit{NumQubits: ctx.Graph.NumQubits(), Gates: ss.Drain(make([]circuit.Gate, 0, ss.Pending()))}
	ctx.SwapsAdded += ss.Swaps() - swaps
	return ss.Layout(), nil
}

// RoutePass runs the configured router from the placement chosen by
// PlacePass; trioAware selects the Trios-capable router variants. With the
// direct router the pass is window-aware (see routeWindow): each Run routes
// the next window, and Final is the live placement.
func RoutePass(trioAware bool) Pass {
	return NewPass("route:main", func(ctx *PassContext, c *circuit.Circuit) error {
		final, err := routeWindow(ctx, &ctx.mainRoute, func() (route.Router, error) {
			return pickRouter(ctx.Opts, trioAware, ctx.costModel(), ctx.Graph)
		}, ctx.Init, c)
		if err != nil {
			return err
		}
		ctx.Final = final
		return nil
	})
}

// GroupsRoutePass routes any-arity gate groups with the cluster router.
func GroupsRoutePass() Pass {
	return NewPass("route:groups", func(ctx *PassContext, c *circuit.Circuit) error {
		final, err := routeWindow(ctx, &ctx.mainRoute, func() (route.Router, error) {
			return &route.Groups{Seed: ctx.Opts.Seed}, nil
		}, ctx.Init, c)
		if err != nil {
			return err
		}
		ctx.Final = final
		return nil
	})
}

// FixupRoutePass patches gates a second decomposition left on non-adjacent
// qubits: it routes the current circuit over physical positions (identity
// layout), then composes the resulting movement onto the placement Final
// held when the fixup began (none, in a context that never routed). The
// router is seeded with Seed+1 to decorrelate it from the main routing
// pass. Like RoutePass it is window-aware.
func FixupRoutePass(r func(ctx *PassContext) (route.Router, error)) Pass {
	return NewPass("route:fixup", func(ctx *PassContext, c *circuit.Circuit) error {
		if ctx.fixupRoute == nil {
			ctx.fixupBase = ctx.Final
		}
		moved, err := routeWindow(ctx, &ctx.fixupRoute, func() (route.Router, error) {
			return r(ctx)
		}, layout.Identity(ctx.Graph.NumQubits()), c)
		if err != nil {
			return err
		}
		if ctx.fixupBase == nil {
			ctx.Final = moved
			return nil
		}
		// Compose placements: v -> main-route final -> fixup final.
		final := make([]int, ctx.Graph.NumQubits())
		for v := range final {
			final[v] = moved.Phys(ctx.fixupBase.Phys(v))
		}
		ctx.Final, err = layout.FromVirtualToPhys(final)
		return err
	})
}

// baselineFixupRouter is the Trios pipeline's fixup: a pairwise router that
// patches the non-adjacent CNOTs a forced 6-CNOT decomposition leaves. It
// scores against the same cost model as the main routing pass.
func baselineFixupRouter(ctx *PassContext) (route.Router, error) {
	w, oracle := routerWeights(ctx.costModel(), ctx.Graph)
	return &route.Baseline{Seed: ctx.Opts.Seed + 1, Weight: w, Oracle: oracle}, nil
}

// triosFixupRouter is the Groups pipeline's fixup: a trio-aware router that
// patches the stray pairs and Toffolis of an in-place MCX expansion. Like
// the Groups main router it is noise-blind (the experimental pipeline has no
// weighted mode), so its output never depends on the cost model.
func triosFixupRouter(ctx *PassContext) (route.Router, error) {
	return &route.Trios{Seed: ctx.Opts.Seed + 1}, nil
}

// ---- Optimize passes ----

// SaturateInputPass runs the worklist rewrite engine on the source circuit
// before decomposition: cancellations, rotation merges, and structural
// absorptions all apply at the logical level, where no routing constraint
// limits which gates a rule may synthesize.
func SaturateInputPass() Pass {
	return NewPass("optimize:saturate-input", func(ctx *PassContext, c *circuit.Circuit) error {
		out, _ := rewrite.Saturate(c, rewrite.Options{})
		ctx.Circuit = out
		return nil
	})
}

// SaturateRoutedPass runs the rewrite engine on the routed circuit, before
// basis lowering — the window where routing SWAPs, intact Toffolis, and
// named Cliffords still exist, so SWAP absorption and CX/CZ conjugation can
// shed two-qubit gates the post-lowering pass can no longer see. Rules that
// synthesize a two-qubit gate on a new pair are gated by the coupling
// graph's adjacency, so the circuit stays routed.
func SaturateRoutedPass() Pass {
	return NewPass("optimize:saturate-routed", func(ctx *PassContext, c *circuit.Circuit) error {
		out, _ := rewrite.Saturate(c, rewrite.Options{AdjacentOK: ctx.Graph.Connected})
		ctx.Circuit = out
		return nil
	})
}

// SaturateOutputPass alternates the rewrite engine with 1-qubit-run
// consolidation on the lowered circuit. Saturation is local — a mixed-axis
// 1q run is a fixpoint for the rule table — while Consolidate1Q resynthesizes
// such runs into at most one u-gate, which can expose new inverse pairs
// across them; the loop runs until the gate count stops dropping (a few
// iterations in practice, capped to stay linear).
func SaturateOutputPass() Pass {
	return NewPass("optimize:saturate-output", func(ctx *PassContext, c *circuit.Circuit) error {
		cur := c
		best := len(cur.Gates) + 1
		for iter := 0; iter < 4 && len(cur.Gates) < best; iter++ {
			best = len(cur.Gates)
			out, _ := rewrite.Saturate(cur, rewrite.Options{})
			consolidated, err := optimize.Consolidate1Q(out)
			if err != nil {
				return err
			}
			cur = consolidated
		}
		ctx.Circuit = cur
		return nil
	})
}

// ---- Schedule and stats passes ----

// FidelityPass closes a calibrated pipeline: it schedules the compiled
// circuit under the calibration's gate times and evaluates the closed-form
// per-edge/per-qubit success estimate (per-qubit decoherence, the paper's
// "idle errors" accounting), recording both in the context. It reads the
// same Calibration the cost model routes by, so the estimate and the routing
// decisions can never disagree about what the hardware costs. The circuit is
// not modified.
func FidelityPass(cal *device.Calibration) Pass {
	return NewPass("stats:fidelity", func(ctx *PassContext, c *circuit.Circuit) error {
		p, d, err := noise.SuccessWithCalibration(c, cal, noise.CoherencePerQubit)
		if err != nil {
			return err
		}
		ctx.EstimatedSuccess, ctx.Makespan = p, d
		return nil
	})
}

// StatsPass is a terminal no-op whose PassMetric snapshot records the final
// circuit size, closing every pipeline's metric trail.
func StatsPass() Pass {
	return NewPass("stats", func(ctx *PassContext, c *circuit.Circuit) error {
		return nil
	})
}

// ---- Pipeline construction ----

// FrontPasses returns the device-independent prefix of the pipeline for
// opts: input optimization (when enabled) followed by the first
// decomposition. Its output depends only on the input circuit, the pipeline
// kind, the Toffoli mode, and the Optimize flag — never on the device graph,
// placement, or seed — which is what lets the batch engine deduplicate it
// across (device x seed x placement) fan-outs.
func FrontPasses(opts Options) ([]Pass, error) {
	var ps []Pass
	if opts.Optimize {
		ps = append(ps, SaturateInputPass())
	}
	switch opts.Pipeline {
	case Conventional:
		mode := opts.Mode
		if mode == decompose.Auto {
			mode = decompose.Six // Qiskit's default Toffoli expansion
		}
		ps = append(ps, DecomposeToffoliAll(mode))
	case TriosPipeline:
		if opts.Mode != decompose.Auto && opts.Mode != decompose.Six && opts.Mode != decompose.Eight {
			return nil, fmt.Errorf("compiler: unsupported toffoli mode %v", opts.Mode)
		}
		ps = append(ps, DecomposeKeepToffoli())
	case GroupsPipeline:
		ps = append(ps, DecomposeKeepMultiQubit())
	default:
		return nil, fmt.Errorf("compiler: unknown pipeline %d", int(opts.Pipeline))
	}
	return ps, nil
}

// BackPasses returns the device-dependent remainder of the pipeline for
// opts: placement, routing, second decomposition, lowering, and output
// optimization.
func BackPasses(opts Options) ([]Pass, error) {
	// Under Optimize a routed-circuit rewrite pass runs just before
	// lowering, where SWAPs and intact Toffolis are still visible.
	lower := []Pass{LowerPass()}
	if opts.Optimize {
		lower = []Pass{SaturateRoutedPass(), LowerPass()}
	}
	var ps []Pass
	switch opts.Pipeline {
	case Conventional:
		ps = append(ps, PlacePass(), RoutePass(false))
		ps = append(ps, lower...)
	case TriosPipeline:
		ps = append(ps, PlacePass(), RoutePass(true))
		switch opts.Mode {
		case decompose.Six:
			// Forced 6-CNOT: decompose, then patch non-adjacent CNOTs with a
			// fixup routing pass over physical positions.
			ps = append(ps, MappingAwarePass(decompose.Six), FixupRoutePass(baselineFixupRouter))
		case decompose.Auto, decompose.Eight:
			ps = append(ps, MappingAwarePass(opts.Mode))
		default:
			return nil, fmt.Errorf("compiler: unsupported toffoli mode %v", opts.Mode)
		}
		ps = append(ps, lower...)
	case GroupsPipeline:
		ps = append(ps,
			PlacePass(),
			GroupsRoutePass(),
			ExpandMCXPass(),
			FixupRoutePass(triosFixupRouter),
			MappingAwarePass(decompose.Auto))
		ps = append(ps, lower...)
	default:
		return nil, fmt.Errorf("compiler: unknown pipeline %d", int(opts.Pipeline))
	}
	if opts.Optimize {
		ps = append(ps, SaturateOutputPass())
	}
	if opts.Calibration != nil {
		ps = append(ps, FidelityPass(opts.Calibration))
	}
	ps = append(ps, StatsPass())
	return ps, nil
}

// PipelinePasses returns the complete pass list (front + back) for opts.
func PipelinePasses(opts Options) ([]Pass, error) {
	front, err := FrontPasses(opts)
	if err != nil {
		return nil, err
	}
	back, err := BackPasses(opts)
	if err != nil {
		return nil, err
	}
	return append(front, back...), nil
}

// PrepareFront validates the input and runs only the front passes,
// returning the prepared circuit and the metrics of the passes that ran.
// The batch engine caches its output per (input, pipeline, mode, optimize).
func PrepareFront(input *circuit.Circuit, opts Options) (*circuit.Circuit, []PassMetric, error) {
	if err := input.Validate(); err != nil {
		return nil, nil, err
	}
	front, err := FrontPasses(opts)
	if err != nil {
		return nil, nil, err
	}
	ctx := &PassContext{Opts: opts, Circuit: input}
	pm := NewPassManager(opts.Pipeline.String()+"-front", front...)
	if err := pm.Run(ctx); err != nil {
		return nil, nil, err
	}
	return ctx.Circuit, ctx.Metrics, nil
}

// checkFits rejects circuits with more qubits than the device has.
func checkFits(input *circuit.Circuit, g *topo.Graph) error {
	if input.NumQubits > g.NumQubits() {
		return fmt.Errorf("compiler: circuit needs %d qubits, device %s has %d", input.NumQubits, g.Name(), g.NumQubits())
	}
	return nil
}

// resolveCost resolves the cost model once per compilation and verifies up
// front that whatever calibration is in play actually characterizes g: a
// noise model missing couplings would otherwise surface as unreachable-path
// routing failures deep inside a pass.
func resolveCost(opts Options, g *topo.Graph) (device.CostModel, error) {
	cm := opts.costModel()
	if opts.Calibration != nil {
		if err := opts.Calibration.CheckGraph(g); err != nil {
			return nil, err
		}
	}
	if nm, ok := cm.(*device.Noise); ok && nm.Calibration() != opts.Calibration {
		if err := nm.Calibration().CheckGraph(g); err != nil {
			return nil, err
		}
	}
	return cm, nil
}

// compileFrom runs the pipeline for opts. When prepared is non-nil it is
// the (possibly cached) output of the front passes for this input and
// configuration, and the front is skipped; frontMetrics carries the metrics
// to attribute to it. Cancelling stdctx aborts at the next pass boundary.
func compileFrom(stdctx context.Context, input, prepared *circuit.Circuit, frontMetrics []PassMetric, g *topo.Graph, opts Options) (*Result, error) {
	if err := checkFits(input, g); err != nil {
		return nil, err
	}
	cm, err := resolveCost(opts, g)
	if err != nil {
		return nil, err
	}
	// Template fast path: a source holding a precompiled fragment for this
	// exact (input, device, options) serves it without running the pipeline;
	// a partial match stitches the fragment to a suffix compile. Templates is
	// stripped from the options handed down so fragment and suffix compiles
	// can never recurse into the source.
	if opts.Templates != nil {
		sub := opts
		sub.Templates = nil
		res, ok, terr := opts.Templates.Stitch(stdctx, input, g, sub)
		if terr != nil {
			return nil, terr
		}
		if ok {
			return res, nil
		}
	}
	// Build the device's distance oracle up front (idempotent): the layout
	// and routing passes then run on pure table lookups, and the one-time
	// build cost is not misattributed to whichever pass queried first.
	g.EnsureOracle()
	ctx := &PassContext{Ctx: stdctx, Graph: g, Opts: opts, Cost: cm}
	if prepared != nil {
		ctx.Circuit = prepared
		ctx.Metrics = append(ctx.Metrics, frontMetrics...)
	} else {
		c, metrics, err := PrepareFront(input, opts)
		if err != nil {
			return nil, err
		}
		ctx.Circuit, ctx.Metrics = c, metrics
	}
	back, err := BackPasses(opts)
	if err != nil {
		return nil, err
	}
	pm := NewPassManager(opts.Pipeline.String(), back...)
	if err := pm.Run(ctx); err != nil {
		return nil, err
	}
	return &Result{
		Input:            input,
		Physical:         ctx.Circuit,
		Initial:          ctx.Init.VirtualToPhys(),
		Final:            ctx.Final.VirtualToPhys(),
		SwapsAdded:       ctx.SwapsAdded,
		Graph:            g,
		Passes:           ctx.Metrics,
		CostModel:        cm.Name(),
		EstimatedSuccess: ctx.EstimatedSuccess,
		Makespan:         ctx.Makespan,
	}, nil
}
