package main

import (
	"context"
	"fmt"
	"strings"

	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/qasm"
	"trios/internal/topo"
)

// passLayers maps compiler pass names (by prefix) to the layer a traced run
// reports them under. Passes not listed (the terminal "stats" snapshot, the
// forced-6-CNOT fixup router) keep a span of their own and show up in
// unattributed_ms.
var passLayers = []struct{ prefix, layer string }{
	{"optimize:", "rewrite.saturate"},
	{"decompose:toffoli-all", "decompose.front"},
	{"decompose:keep-", "decompose.front"},
	{"decompose:mapping-aware", "decompose.mapping"},
	{"layout:place", "layout.place"},
	{"route:main", "route.main"},
	{"lower:basis", "decompose.lower"},
	{"stats:fidelity", "noise.fidelity"},
}

func layerOf(pass string) string {
	for _, l := range passLayers {
		if strings.HasPrefix(pass, l.prefix) {
			return l.layer
		}
	}
	return "pass:" + pass
}

// passLayerNames is the set of reported pass layers.
func passLayerNames() map[string]bool {
	m := make(map[string]bool)
	for _, l := range passLayers {
		m[l.layer] = true
	}
	return m
}

// replayed is one compile rerun pass by pass.
type replayed struct {
	QASM      string
	Swaps     int
	Removed2Q int // two-qubit gates the optimize passes removed
}

// replay compiles input the way compiler.Compile does, but runs the pass
// list from compiler.PipelinePasses itself so that each Pass.Run gets a
// span under parent. Its emitted QASM must equal Compile's.
func replay(parent *live, input *circuit.Circuit, g *topo.Graph, opts compiler.Options) (replayed, error) {
	var out replayed
	passes, err := compiler.PipelinePasses(opts)
	if err != nil {
		return out, err
	}
	if err := input.Validate(); err != nil {
		return out, err
	}
	g.EnsureOracle()
	ctx := &compiler.PassContext{Ctx: context.Background(), Graph: g, Opts: opts, Circuit: input}
	for _, p := range passes {
		before := ctx.Circuit.TwoQubitCount()
		sp := parent.child(layerOf(p.Name()))
		err := p.Run(ctx, ctx.Circuit)
		sp.end()
		if err != nil {
			return out, fmt.Errorf("replay pass %s: %w", p.Name(), err)
		}
		if strings.HasPrefix(p.Name(), "optimize:") {
			out.Removed2Q += before - ctx.Circuit.TwoQubitCount()
		}
	}
	out.QASM, err = qasm.Emit(ctx.Circuit)
	out.Swaps = ctx.SwapsAdded
	return out, err
}
