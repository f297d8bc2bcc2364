package stream

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"trios/internal/circuit"
	"trios/internal/qasm"
	"trios/internal/sched"
)

// Compile runs a windowed compile: QASM read from src, each window passed
// through cfg.Stages, and the output written to dst incrementally.
// Cancelling ctx aborts at the next window boundary.
func Compile(ctx context.Context, src io.Reader, dst io.Writer, cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("stream: Config.Graph is required")
	}
	if err := CheckWindow(cfg.Window); err != nil {
		return nil, err
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Times == (sched.GateTimes{}) {
		cfg.Times = sched.JohannesburgTimes()
	}
	r := &run{cfg: cfg, reader: qasm.NewReader(src), out: dst}
	steps := make([]func(*window) error, 0, len(cfg.Stages)+1)
	for _, s := range cfg.Stages {
		steps = append(steps, r.stage(s))
	}
	steps = append(steps, r.emit)
	var err error
	if cfg.Parallel {
		err = r.runParallel(ctx, steps)
	} else {
		err = r.runSerial(ctx, steps)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		InputQubits:       r.n,
		NumQubits:         cfg.Graph.NumQubits(),
		InputGates:        r.read,
		EmittedGates:      r.emitted,
		Windows:           r.windows,
		ScheduledDuration: r.makespan,
	}, nil
}

// produce reads windows and hands each to sink until the stream ends.
// Window 0 is always produced, even for a gate-less program, so every stage
// sees at least one window and the output header is written exactly once.
func (r *run) produce(ctx context.Context, sink func(*window) error) error {
	for idx := 0; ; idx++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		gates, done, err := r.readWindow()
		if err != nil {
			return err
		}
		if r.n == 0 { // gate-less stream: pin from the declaration alone
			if err := r.pinRegister(); err != nil {
				return err
			}
		}
		if done && len(gates) == 0 && idx > 0 {
			return nil
		}
		r.windows = idx + 1
		sp := r.cfg.Span.Child("stream:window")
		sp.SetAttr("window", strconv.Itoa(idx))
		sp.SetAttr("gates.in", strconv.Itoa(len(gates)))
		if err := sink(&window{idx: idx, c: &circuit.Circuit{NumQubits: r.n, Gates: gates}, span: sp}); err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// runSerial drives every step in one goroutine, window by window. This is
// the reference ordering; the parallel driver must match it bit for bit.
func (r *run) runSerial(ctx context.Context, steps []func(*window) error) error {
	return r.produce(ctx, func(w *window) error {
		for _, step := range steps {
			if err := step(w); err != nil {
				return err
			}
		}
		return nil
	})
}

// runParallel connects the reader and the steps with channels, one
// goroutine each, so one window is in an early stage while the previous is
// in a later one. Channel capacity 1 bounds the in-flight windows (and so
// memory) to a small constant multiple of the window size; FIFO order makes
// the result identical to runSerial at any core count, because every step
// still sees windows in circuit order. The first error cancels the chain,
// and every goroutine has exited when runParallel returns.
func (r *run) runParallel(ctx context.Context, steps []func(*window) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, len(steps)+1)
	fail := func(err error) {
		errc <- err
		cancel()
	}
	var wg sync.WaitGroup
	read := make(chan *window, 1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(read)
		err := r.produce(ctx, func(w *window) error {
			select {
			case read <- w:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		if err != nil {
			fail(err)
		}
	}()

	in := read
	for i, step := range steps {
		var out chan *window
		if i+1 < len(steps) {
			out = make(chan *window, 1)
		}
		wg.Add(1)
		go func(in <-chan *window, out chan<- *window, step func(*window) error) {
			defer wg.Done()
			if out != nil {
				defer close(out)
			}
			for {
				select {
				case <-ctx.Done():
					return
				case w, ok := <-in:
					if !ok {
						return
					}
					if err := step(w); err != nil {
						fail(err)
						return
					}
					if out != nil {
						select {
						case out <- w:
						case <-ctx.Done():
							return
						}
					}
				}
			}
		}(in, out, step)
		in = out
	}

	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}
	return ctx.Err()
}
