// Package service is the compilation-as-a-service core behind the triosd
// daemon: it parses wire requests into compiler jobs, content-addresses
// compiled artifacts in a bounded LRU cache keyed by SHA-256 over the
// canonical QASM and the full option set, collapses concurrent identical
// requests into one compile, and admission-controls everything through a
// bounded queue feeding the compiler's persistent worker pool.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/qasm"
	"trios/internal/topo"
)

// CompileRequest is the wire form of POST /v1/compile. Exactly one of QASM
// (inline OpenQASM 2.0 source) and Benchmark (a named Table-1 workload) must
// be set. String enums and defaults mirror the trios CLI flags so a request
// is a transliteration of a command line; a zero Seed means the CLI's
// default seed 1.
type CompileRequest struct {
	QASM          string `json:"qasm,omitempty"`
	Benchmark     string `json:"benchmark,omitempty"`
	Topology      string `json:"topology,omitempty"`  // default "johannesburg"
	Pipeline      string `json:"pipeline,omitempty"`  // trios | baseline | groups
	Toffoli       string `json:"toffoli,omitempty"`   // auto | 6 | 8
	Router        string `json:"router,omitempty"`    // direct | stochastic | lookahead
	Placement     string `json:"placement,omitempty"` // greedy | identity | random
	InitialLayout []int  `json:"initial_layout,omitempty"`
	// Seed is a pointer so an explicit {"seed": 0} is honored as seed 0
	// (matching `trios -seed 0` byte for byte) while an absent seed takes
	// the CLI's default of 1.
	Seed     *int64 `json:"seed,omitempty"`
	Optimize bool   `json:"optimize,omitempty"`
	// Optimizer names the optimization engine. The saturating rewrite
	// engine is the only one, so "" and "saturate" are accepted and key
	// identically; "legacy" (the retired pairwise cancel loop) and any
	// other value are a 400. The field only validates client input.
	Optimizer string `json:"optimizer,omitempty"`
	// Calibration names a registry calibration (see GET /v1/calibrations).
	// When set, the compile is calibration-parameterized: routing and
	// placement weigh edges by the calibration's -log CNOT success rates
	// (unless Cost overrides) and the response carries an estimated-success
	// + makespan block.
	Calibration string `json:"calibration,omitempty"`
	// Cost selects the cost model under a calibration: "noise" (default)
	// or "uniform" (compile exactly like a calibration-less request —
	// byte-identical QASM — but still report the fidelity block). Setting
	// it without a calibration is an error.
	Cost string `json:"cost,omitempty"`
}

// RequestError marks a failure attributable to the request itself (unknown
// enum, malformed QASM, missing input); the HTTP layer maps it to 400.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) error {
	return &RequestError{Err: fmt.Errorf(format, args...)}
}

// JobSpec is a fully-resolved compile request: the parsed input, the target
// device, canonical compiler options, and the content-address Key under
// which the artifact caches.
type JobSpec struct {
	Input *circuit.Circuit
	Graph *topo.Graph
	Opts  compiler.Options
	// CanonicalQASM is the input re-serialized in qasm.Emit's normal form —
	// the request text that is actually hashed, so comment and whitespace
	// variants of one program share a cache entry.
	CanonicalQASM string
	// InputDigest is the SHA-256 hex of CanonicalQASM alone: the circuit's
	// content identity, handed to the compile pool as Job.FrontKey so
	// requests for one program share front-pass work across devices, seeds,
	// and placements.
	InputDigest string
	// Key is "sha256:<hex>" over canonical QASM, device name, and option
	// fingerprint.
	Key string
}

// DecodeRequest decodes one wire request strictly: an unknown field is an
// error, so a misspelled option never compiles silently with its default.
// The daemon and the fleet proxy both decode through it.
func DecodeRequest(r io.Reader) (CompileRequest, error) {
	var req CompileRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// Resolve validates a wire request into a JobSpec. All failures are
// RequestErrors: nothing here has touched the compile pipeline yet.
func Resolve(req CompileRequest) (*JobSpec, error) {
	input, err := resolveInput(req)
	if err != nil {
		return nil, err
	}
	if err := input.Validate(); err != nil {
		return nil, badRequest("invalid circuit: %v", err)
	}
	g, err := deviceByName(orDefault(req.Topology, "johannesburg"))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	opts, err := resolveOptions(req)
	if err != nil {
		return nil, err
	}
	if err := compiler.CheckInitialLayout(opts.InitialLayout, g); err != nil {
		return nil, badRequest("%v", err)
	}
	canon, err := qasm.Emit(input)
	if err != nil {
		return nil, badRequest("input does not serialize: %v", err)
	}
	key, err := specKey(canon, g, opts)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	digest := sha256.Sum256([]byte(canon))
	return &JobSpec{
		Input:         input,
		Graph:         g,
		Opts:          opts,
		CanonicalQASM: canon,
		InputDigest:   hex.EncodeToString(digest[:]),
		Key:           key,
	}, nil
}

// specKey is the artifact content address: "sha256:<hex>" over the canonical
// QASM, device name, and option fingerprint. The option fingerprint includes
// the template-library digest, so template-stitched artifacts never alias
// artifacts compiled without the library.
func specKey(canon string, g *topo.Graph, opts compiler.Options) (string, error) {
	optKey, err := opts.CacheKey()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(canon))
	h.Write([]byte{0})
	h.Write([]byte(g.Name()))
	h.Write([]byte{0})
	h.Write([]byte(optKey))
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// AttachTemplates wires a template source into a resolved spec and recomputes
// the content address (the library digest is part of the option fingerprint).
// The daemon calls this after Resolve for every request when it was started
// with a warmed template store.
func (spec *JobSpec) AttachTemplates(ts compiler.TemplateSource) error {
	spec.Opts.Templates = ts
	key, err := specKey(spec.CanonicalQASM, spec.Graph, spec.Opts)
	if err != nil {
		return err
	}
	spec.Key = key
	return nil
}

func resolveInput(req CompileRequest) (*circuit.Circuit, error) {
	switch {
	case req.QASM != "" && req.Benchmark != "":
		return nil, badRequest("set either qasm or benchmark, not both")
	case req.QASM != "":
		c, err := qasm.Parse(req.QASM)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return c, nil
	case req.Benchmark != "":
		b, err := benchmarks.ByName(req.Benchmark)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		c, err := b.Build()
		if err != nil {
			return nil, badRequest("benchmark %s: %v", req.Benchmark, err)
		}
		return c, nil
	}
	return nil, badRequest("no input: set qasm or benchmark")
}

// resolveOptions maps wire strings to compiler options through the same
// compiler.Parse* helpers the trios CLI flags use, defaulting empty fields
// to the CLI's flag defaults — so the daemon and the CLI accept exactly one
// vocabulary.
func resolveOptions(req CompileRequest) (compiler.Options, error) {
	opts := compiler.Options{Optimize: req.Optimize, InitialLayout: req.InitialLayout}
	var err error
	if opts.Pipeline, err = compiler.ParsePipeline(orDefault(req.Pipeline, "trios")); err != nil {
		return opts, badRequest("%v", err)
	}
	if opts.Mode, err = compiler.ParseToffoli(orDefault(req.Toffoli, "auto")); err != nil {
		return opts, badRequest("%v", err)
	}
	if opts.Router, err = compiler.ParseRouter(orDefault(req.Router, "direct")); err != nil {
		return opts, badRequest("%v", err)
	}
	if opts.Placement, err = compiler.ParsePlacement(orDefault(req.Placement, "greedy")); err != nil {
		return opts, badRequest("%v", err)
	}
	switch req.Optimizer {
	case "", "saturate":
	case "legacy":
		return opts, badRequest("optimizer %q was removed: the saturating rewrite engine is the only optimizer (send \"saturate\" or omit the field)", req.Optimizer)
	default:
		return opts, badRequest("unknown optimizer %q (the only optimizer is saturate)", req.Optimizer)
	}
	opts.Seed = 1 // the trios CLI's default seed
	if req.Seed != nil {
		opts.Seed = *req.Seed
	}
	if opts.Calibration, opts.CostModel, err = compiler.ResolveCalibration(req.Calibration, req.Cost); err != nil {
		return opts, badRequest("%v", err)
	}
	return opts, nil
}

// DefaultCompileOptions returns the options an all-defaults wire request
// resolves to (trios pipeline, direct router, greedy placement, seed 1). The
// daemon warms template fragments under exactly these options so default
// requests hit warmed fragments.
func DefaultCompileOptions() (compiler.Options, error) {
	return resolveOptions(CompileRequest{})
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// deviceGraphs memoizes one Graph per topology name for the process
// lifetime. Graphs are documented read-only and share-safe, and their
// all-pairs distance oracle is a deliberate build-once-per-device cost —
// rebuilding graph and oracle on every request would pay it per compile
// instead of per daemon.
var deviceGraphs sync.Map // name -> *topo.Graph

func deviceByName(name string) (*topo.Graph, error) {
	if g, ok := deviceGraphs.Load(name); ok {
		return g.(*topo.Graph), nil
	}
	g, err := topo.ByName(name)
	if err != nil {
		return nil, err
	}
	g.EnsureOracle() // pay the one-time table build now, outside any compile
	actual, _ := deviceGraphs.LoadOrStore(name, g)
	return actual.(*topo.Graph), nil
}
