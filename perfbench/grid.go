package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/device"
	"trios/internal/qasm"
	"trios/internal/sim"
	"trios/internal/topo"
)

// gridTopologies are the paper's four devices; each has a registry
// calibration.
var gridTopologies = []string{"johannesburg", "grid", "line", "clusters"}

// simSample is how many grid results a run re-checks with the simulator.
const simSample = 2

// grid is the table1-grid job list: the 11 Table-1 circuits x 4 topologies x
// 2 pipelines x 3 routers x 2 cost models, optimize on.
type grid struct {
	jobs  []compiler.Job
	gates int // input gates over one pass of the job list
}

func buildGrid(seed int64) (*grid, error) {
	var inputs []*circuit.Circuit
	var names []string
	for _, b := range benchmarks.All() {
		c, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("benchmark %s: %w", b.Name, err)
		}
		inputs = append(inputs, c)
		names = append(names, b.Name)
	}
	costs := []struct {
		name string
		cm   device.CostModel // nil: the calibration's noise model
	}{{"uniform", device.Uniform{}}, {"noise", nil}}
	gr := &grid{}
	for _, tn := range gridTopologies {
		g, err := topo.ByName(tn)
		if err != nil {
			return nil, err
		}
		cal, err := device.ForDevice(tn)
		if err != nil {
			return nil, err
		}
		g.EnsureOracle()
		device.NoiseFor(cal).Oracle(g)
		for i, c := range inputs {
			for _, p := range []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline} {
				for _, rk := range []compiler.RouterKind{compiler.RouteDirect, compiler.RouteStochastic, compiler.RouteLookahead} {
					for _, cost := range costs {
						gr.jobs = append(gr.jobs, compiler.Job{
							ID:    fmt.Sprintf("%s/%s/%v/%v/%s", names[i], tn, p, rk, cost.name),
							Input: c,
							Graph: g,
							Opts: compiler.Options{
								Pipeline:    p,
								Router:      rk,
								Placement:   compiler.PlaceGreedy,
								Seed:        splitmix(seed, uint64(len(gr.jobs))),
								Optimize:    true,
								Calibration: cal,
								CostModel:   cost.cm,
							},
						})
						gr.gates += len(c.Gates)
					}
				}
			}
		}
	}
	return gr, nil
}

// gridPass summarizes one Batch run of the whole grid.
type gridPass struct {
	cx      int
	success []float64
	results []*compiler.Result // nil entries for failed jobs
}

func runGrid(r *run) error {
	gr, setupS, err := medianSetup(21, func() (*grid, error) { return buildGrid(r.seed) }, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	ctx := context.Background()
	batch := &compiler.Batch{Workers: r.procs}

	measure := r.seconds
	if r.tr != nil {
		measure /= 2 // the other half replays the grid traced
	}
	var (
		walls []float64
		lat   [][]float64 // per pass
		first *gridPass
		last  *gridPass
	)
	for deadline := time.Now().Add(measure); len(walls) == 0 || time.Now().Before(deadline); {
		t := time.Now()
		rs, err := batch.Run(ctx, gr.jobs)
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(t).Seconds())
		p := &gridPass{results: make([]*compiler.Result, len(rs))}
		var passLat []float64
		for i, jr := range rs {
			if jr.Err == nil {
				jr.Err = jr.Result.Verify()
			}
			r.op(wrapJob(jr.Job.ID, jr.Err))
			if jr.Err != nil {
				passLat = append(passLat, math.Inf(1))
				continue
			}
			passLat = append(passLat, float64(jr.Elapsed)/float64(time.Millisecond))
			p.results[i] = jr.Result
			p.cx += jr.Result.TwoQubitGates()
			p.success = append(p.success, jr.Result.EstimatedSuccess)
		}
		lat = append(lat, passLat)
		if first == nil {
			first = p
		} else {
			r.op(sameQuality(first, p))
		}
		last = p
	}
	rates := make([]float64, len(walls))
	gateRates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(len(gr.jobs)) / w
		gateRates[i] = float64(gr.gates) / w
	}
	r.set("ops_per_s", median(rates))
	r.set("gates_per_s", median(gateRates))
	r.windowedLatency(lat)
	r.set("cx_total", float64(first.cx))
	r.set("success_nlog10", nlog10Geomean(first.success))
	r.note("grid_jobs", len(gr.jobs))
	r.note("pass_wall_s", walls)
	r.set("peak_rss_mib", peakRSSMiB())

	emits, err := emitAll(last.results)
	if err != nil {
		return err
	}
	if r.tr != nil {
		if err := traceGrid(r, gr, emits, median(rates)); err != nil {
			return err
		}
	}

	// Checks, outside the timed region. The grid compiled by one worker
	// must emit exactly what nproc workers emitted.
	t := time.Now()
	rs, err := (&compiler.Batch{Workers: 1}).Run(ctx, gr.jobs)
	if err != nil {
		return err
	}
	serialWall := time.Since(t).Seconds()
	serial, err := compiler.Results(rs)
	if err != nil {
		r.op(err)
	} else {
		serialEmits, err := emitAll(serial)
		if err != nil {
			return err
		}
		r.op(sameEmits("Workers=1", serialEmits, fmt.Sprintf("Workers=%d", r.procs), emits))
	}
	r.set("compiler.batch_speedup", serialWall/median(walls))

	// An independent interpreter, not the compiler, checks a seeded sample
	// of results against their inputs.
	var eng sim.Engine
	rng := rand.New(rand.NewSource(r.seed))
	for _, i := range rng.Perm(len(gr.jobs))[:simSample] {
		res := last.results[i]
		if res == nil {
			continue
		}
		n := res.Input.NumQubits
		v, err := eng.VerifyCompiled(res.Input, res.Physical, res.Graph.NumQubits(), res.Initial[:n], res.Final[:n], 1, r.seed)
		if err == nil && !v.Equivalent {
			err = fmt.Errorf("%s backend finds the compiled circuit not equivalent to its input", v.Backend)
		}
		r.op(wrapJob(gr.jobs[i].ID+" simulation check", err))
	}
	return nil
}

// traceGrid replays the grid pass by pass with procs workers for the other
// half of the run, at least once in full, and reports per-pass self times.
// Every replay must emit what Batch emitted for the same job.
func traceGrid(r *run, gr *grid, emits []string, untracedOps float64) error {
	type outcome struct {
		i   int
		rep replayed
		err error
	}
	idx := make(chan int)
	out := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < r.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				j := gr.jobs[i]
				root := r.tr.root("grid.job")
				rep, err := replay(root, j.Input, j.Graph, j.Opts)
				root.end()
				out <- outcome{i, rep, err}
			}
		}()
	}
	start := time.Now()
	deadline := start.Add(r.seconds - r.seconds/2)
	go func() {
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			for i := range gr.jobs {
				idx <- i
			}
		}
		close(idx)
		wg.Wait()
		close(out)
	}()
	seen := make([]bool, len(gr.jobs))
	var replays, swaps, removed int
	for o := range out {
		replays++
		err := o.err
		if err == nil && o.rep.QASM != emits[o.i] {
			err = fmt.Errorf("replayed pass list emits different QASM than Batch")
		}
		r.op(wrapJob(gr.jobs[o.i].ID+" replay", err))
		if err == nil && !seen[o.i] {
			seen[o.i] = true
			swaps += o.rep.Swaps
			removed += o.rep.Removed2Q
		}
	}
	tracedOps := float64(replays) / time.Since(start).Seconds()
	r.set("trace.overhead_pct", 100*(untracedOps-tracedOps)/untracedOps)
	r.set("route.swaps", float64(swaps))
	r.set("rewrite.removed_2q", float64(removed))
	reportPassLayers(r)
	r.unattributed("grid.job", passLayerNames())
	return nil
}

// reportPassLayers sets the pass-layer metrics from the spans recorded so
// far.
func reportPassLayers(r *run) {
	self := layerSelf(r.tr.snapshot())
	for l := range passLayerNames() {
		r.setLayer(l+"_ms", self[l], time.Millisecond)
	}
}

// sameQuality checks that a later grid pass compiled to the first pass's
// quality figures: compilation is deterministic in its seeds.
func sameQuality(first, p *gridPass) error {
	if p.cx != first.cx || len(p.success) != len(first.success) {
		return fmt.Errorf("grid pass differs from the first: cx %d vs %d", p.cx, first.cx)
	}
	for i := range p.success {
		if p.success[i] != first.success[i] {
			return fmt.Errorf("grid pass differs from the first: estimated success of result %d", i)
		}
	}
	return nil
}

func emitAll(results []*compiler.Result) ([]string, error) {
	out := make([]string, len(results))
	for i, res := range results {
		if res == nil {
			continue
		}
		s, err := qasm.Emit(res.Physical)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func sameEmits(aName string, a []string, bName string, b []string) error {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("job %d: %s and %s emit different QASM", i, aName, bName)
		}
	}
	return nil
}

func wrapJob(id string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", id, err)
}
