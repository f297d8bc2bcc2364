// Package stream drives a compile over bounded gate windows: QASM is read
// one window at a time, each window is handed through a caller-supplied
// chain of stages, and the result is scheduled and re-emitted incrementally,
// so peak memory is proportional to the window size rather than the circuit
// length. The driver owns only windowing, scheduling and emission; it runs
// no compiler pass of its own. The stages carry every piece of cross-window
// compile state (compiler.StreamCompile builds them from the compiler's own
// pass list, whose routing passes keep persistent sessions), and the driver
// carries the ASAP schedule's per-qubit availability times across windows.
//
// Stages can also run as a pipelined worker chain (Config.Parallel):
// channel-connected goroutines with one window in an early stage while the
// previous window is in a later one, which is how a single large compile
// uses multiple cores. FIFO channels keep windows ordered, so the pipelined
// output is bit-identical to the serial one at any core count.
package stream

import (
	"fmt"
	"io"
	"strconv"

	"trios/internal/circuit"
	"trios/internal/obs"
	"trios/internal/qasm"
	"trios/internal/sched"
	"trios/internal/topo"
)

// DefaultWindow is the gate-window size when Config.Window is zero: big
// enough to amortize per-window pass overhead, small enough that a handful
// of in-flight windows stay cache-resident.
const DefaultWindow = 4096

// MaxWindow is the largest accepted gate-window size. A window is held in
// memory whole by every stage it is in flight through, so the bound caps
// what one caller-chosen value can make the process allocate.
const MaxWindow = 1 << 20

// CheckWindow rejects a window size above MaxWindow. Sizes <= 0 select
// DefaultWindow.
func CheckWindow(n int) error {
	if n > MaxWindow {
		return fmt.Errorf("stream: window %d exceeds the maximum of %d gates", n, MaxWindow)
	}
	return nil
}

// Stage is one step of the per-window chain. Run transforms one window's
// circuit. A stage sees every window, in circuit order, and never two at
// once, so it may keep cross-window state without locking; that state is
// safe to read once Compile has returned.
type Stage struct {
	// Name labels the stage in errors and in the window span's
	// "gates.<Name>" attribute.
	Name string
	Run  func(c *circuit.Circuit) (*circuit.Circuit, error)
}

// Config configures a windowed compile.
type Config struct {
	// Graph is the target device: the output is emitted over its register,
	// and the input register must fit in it.
	Graph *topo.Graph
	// Stages transform each window in order. The first sees the input
	// window over the declared register; the last must return gates on
	// device qubits.
	Stages []Stage
	// Times is the gate-time model for the incremental ASAP schedule; the
	// zero value selects the paper's Johannesburg times.
	Times sched.GateTimes
	// Window is the gate-window size (DefaultWindow when <= 0, at most
	// MaxWindow).
	Window int
	// Parallel runs the stages as a channel-connected worker chain instead
	// of a serial per-window loop. Output is bit-identical either way.
	Parallel bool
	// Span, when non-nil, is the parent trace span; each window records a
	// child span with its per-stage gate counts.
	Span *obs.Span
}

// Result summarizes a windowed compile.
type Result struct {
	// InputQubits is the declared input register; NumQubits the device
	// register the output is emitted over.
	InputQubits int
	NumQubits   int
	InputGates  int
	// EmittedGates counts gates written to the output stream.
	EmittedGates int
	Windows      int
	// ScheduledDuration is the ASAP makespan (us) of the emitted circuit
	// under Config.Times, accumulated incrementally.
	ScheduledDuration float64
}

// window is the unit of work flowing through the stages.
type window struct {
	idx  int
	c    *circuit.Circuit
	span *obs.Span
}

// run is one windowed compile. In parallel mode each field is owned by
// exactly one goroutine (or written by the reader before the first window
// is passed on, which the channel handoff orders).
type run struct {
	cfg    Config
	reader *qasm.Reader
	out    io.Writer

	// Owned by the reader; n and hasCreg are set before the first window
	// is released.
	n       int // input register size, fixed for the whole stream
	hasCreg bool
	read    int // gates read so far
	windows int

	// Owned by the emitter.
	emitter  *qasm.Emitter
	avail    []float64
	makespan float64
	emitted  int
}

// readWindow pulls up to cfg.Window gates. done reports a clean end of
// stream. The register size is pinned at the first gate: streaming
// requires strict register bounds, because a later gate growing the
// register would retroactively change how earlier windows were compiled
// (canonical inputs never grow).
func (r *run) readWindow() (gates []circuit.Gate, done bool, err error) {
	// The buffer starts at most DefaultWindow long and grows with what the
	// stream actually holds, so a large window costs nothing up front.
	gates = make([]circuit.Gate, 0, min(r.cfg.Window, DefaultWindow))
	for len(gates) < r.cfg.Window {
		g, err := r.reader.NextGate()
		if err == io.EOF {
			r.read += len(gates)
			return gates, true, nil
		}
		if err != nil {
			return nil, false, err
		}
		if r.n == 0 {
			if err := r.pinRegister(); err != nil {
				return nil, false, err
			}
		}
		gates = append(gates, g)
		if r.reader.NumQubits() != r.n {
			return nil, false, fmt.Errorf("stream: gate %d references a qubit beyond the declared %d-qubit register; streaming compiles require strict register bounds", r.read+len(gates)-1, r.n)
		}
	}
	r.read += len(gates)
	return gates, false, nil
}

// pinRegister fixes the input register size and header shape from the
// reader's state (called once the declaration has been parsed).
func (r *run) pinRegister() error {
	r.n = r.reader.NumQubits()
	r.hasCreg = r.reader.HasCreg()
	if g := r.cfg.Graph; r.n > g.NumQubits() {
		return fmt.Errorf("stream: circuit needs %d qubits, device %s has %d", r.n, g.Name(), g.NumQubits())
	}
	return nil
}

// stage adapts s to the window flow: it replaces the window's circuit with
// the stage's output and records the output size on the window span.
func (r *run) stage(s Stage) func(*window) error {
	return func(w *window) error {
		c, err := s.Run(w.c)
		if err != nil {
			return fmt.Errorf("stream: window %d, %s stage: %w", w.idx, s.Name, err)
		}
		w.c = c
		w.span.SetAttr("gates."+s.Name, strconv.Itoa(len(c.Gates)))
		return nil
	}
}

// emit advances the incremental ASAP schedule gate by gate (the same fold
// sched.ASAP runs, with the per-qubit availability vector carried across
// windows) and streams the window's gates to the output, flushing at the
// window boundary so consumers see incremental delivery.
func (r *run) emit(w *window) error {
	if w.idx == 0 {
		e, err := qasm.NewEmitter(r.out, r.cfg.Graph.NumQubits(), r.hasCreg)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		r.emitter = e
		r.avail = make([]float64, r.cfg.Graph.NumQubits())
	}
	for _, g := range w.c.Gates {
		gs := 0.0
		for _, q := range g.Qubits {
			if r.avail[q] > gs {
				gs = r.avail[q]
			}
		}
		d, err := r.cfg.Times.Duration(g)
		if err != nil {
			return fmt.Errorf("stream: window %d: %w", w.idx, err)
		}
		end := gs + d
		for _, q := range g.Qubits {
			r.avail[q] = end
		}
		if end > r.makespan {
			r.makespan = end
		}
		if err := r.emitter.EmitGate(g); err != nil {
			return fmt.Errorf("stream: window %d: %w", w.idx, err)
		}
	}
	if err := r.emitter.Flush(); err != nil {
		return fmt.Errorf("stream: window %d: %w", w.idx, err)
	}
	r.emitted += len(w.c.Gates)
	w.span.SetAttr("gates.emitted", strconv.Itoa(len(w.c.Gates)))
	w.span.End()
	return nil
}
