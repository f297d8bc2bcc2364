package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"trios/internal/circuit"
	"trios/internal/topo"
)

// program builds a QASM source of n gates over a q-qubit register.
func program(q, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", q)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "h q[%d];\n", i%q)
		case 1:
			fmt.Fprintf(&b, "cx q[%d], q[%d];\n", i%q, (i+1)%q)
		default:
			fmt.Fprintf(&b, "t q[%d];\n", (i+2)%q)
		}
	}
	return b.String()
}

// flip mirrors every qubit onto the far end of an n-qubit device.
func flip(n int) Stage {
	return Stage{Name: "flip", Run: func(c *circuit.Circuit) (*circuit.Circuit, error) {
		out := circuit.New(n)
		for _, g := range c.Gates {
			g.Qubits = append([]int(nil), g.Qubits...)
			for i, q := range g.Qubits {
				g.Qubits[i] = n - 1 - q
			}
			out.Gates = append(out.Gates, g)
		}
		return out, nil
	}}
}

// marker is stateful: it opens each window with a u1 whose angle counts
// the windows seen so far, so the output depends on window order.
func marker() Stage {
	seen := 0
	return Stage{Name: "marker", Run: func(c *circuit.Circuit) (*circuit.Circuit, error) {
		seen++
		out := circuit.New(c.NumQubits)
		out.Gates = append(out.Gates, circuit.Gate{Name: circuit.U1, Qubits: []int{0}, Params: []float64{float64(seen) / 8}})
		out.Gates = append(out.Gates, c.Gates...)
		return out, nil
	}}
}

// identity passes windows through and counts its calls.
func identity(calls *int) Stage {
	return Stage{Name: "identity", Run: func(c *circuit.Circuit) (*circuit.Circuit, error) {
		*calls++
		return c, nil
	}}
}

func compile(t *testing.T, ctx context.Context, src string, cfg Config) (string, *Result, error) {
	t.Helper()
	var out bytes.Buffer
	res, err := Compile(ctx, strings.NewReader(src), &out, cfg)
	return out.String(), res, err
}

// waitGoroutines fails the test unless the goroutine count drops back to
// at most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSerialAndParallelBytesMatch(t *testing.T) {
	g := topo.Line(7)
	src := program(5, 1000)
	for _, window := range []int{1, 7, 64, 5000} {
		var outs [2]string
		for i, parallel := range []bool{false, true} {
			cfg := Config{Graph: g, Window: window, Parallel: parallel, Stages: []Stage{flip(g.NumQubits()), marker()}}
			out, res, err := compile(t, context.Background(), src, cfg)
			if err != nil {
				t.Fatalf("window=%d parallel=%v: %v", window, parallel, err)
			}
			wantWindows := (1000 + window - 1) / window
			if res.InputGates != 1000 || res.Windows != wantWindows || res.EmittedGates != 1000+wantWindows {
				t.Fatalf("window=%d parallel=%v: result %+v, want 1000 gates in %d windows", window, parallel, res, wantWindows)
			}
			if res.InputQubits != 5 || res.NumQubits != 7 || res.ScheduledDuration <= 0 {
				t.Fatalf("window=%d parallel=%v: result %+v", window, parallel, res)
			}
			outs[i] = out
		}
		if outs[0] != outs[1] {
			t.Fatalf("window=%d: pipelined output differs from serial", window)
		}
		if !strings.Contains(outs[0], "qreg q[7];") || !strings.Contains(outs[0], "cx q[5], q[4];") {
			t.Fatalf("window=%d: output not emitted over the flipped device register:\n%.200s", window, outs[0])
		}
	}
}

func TestParallelStageErrorStopsChain(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	var first, seen, last int
	failing := Stage{Name: "failing", Run: func(c *circuit.Circuit) (*circuit.Circuit, error) {
		if seen++; seen == 3 {
			return nil, boom
		}
		return c, nil
	}}
	cfg := Config{Graph: topo.Line(5), Window: 4, Parallel: true, Stages: []Stage{identity(&first), failing, identity(&last)}}
	_, _, err := compile(t, context.Background(), program(5, 4000), cfg)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the middle stage's error", err)
	}
	if !strings.Contains(err.Error(), "failing stage") {
		t.Fatalf("err %q does not name the failing stage", err)
	}
	if last >= 3 {
		t.Fatalf("last stage saw %d windows, want fewer than 3", last)
	}
	waitGoroutines(t, before)
}

func TestCancelMidStream(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		windows := 0
		cancelling := Stage{Name: "cancelling", Run: func(c *circuit.Circuit) (*circuit.Circuit, error) {
			if windows++; windows == 2 {
				cancel()
			}
			return c, nil
		}}
		cfg := Config{Graph: topo.Line(5), Window: 4, Parallel: parallel, Stages: []Stage{cancelling}}
		_, _, err := compile(t, ctx, program(5, 4000), cfg)
		if err == nil || err != ctx.Err() {
			t.Fatalf("parallel=%v: err = %v, want %v", parallel, err, ctx.Err())
		}
		waitGoroutines(t, before)
	}
}

func TestGatelessProgramEmitsHeaderOnce(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		calls := 0
		cfg := Config{Graph: topo.Line(4), Parallel: parallel, Stages: []Stage{identity(&calls)}}
		out, res, err := compile(t, context.Background(), "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n", cfg)
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if strings.Count(out, "OPENQASM") != 1 || strings.Count(out, "qreg q[4];") != 1 || strings.Count(out, "creg") != 1 {
			t.Fatalf("parallel=%v: header not emitted exactly once:\n%s", parallel, out)
		}
		if res.Windows != 1 || calls != 1 || res.InputQubits != 3 || res.EmittedGates != 0 {
			t.Fatalf("parallel=%v: result %+v after %d stage calls, want one empty window", parallel, res, calls)
		}
	}
}

func TestRejectsRegisterGrowth(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		cfg := Config{Graph: topo.Line(10), Window: 1, Parallel: parallel}
		_, _, err := compile(t, context.Background(), "qreg q[2];\nh q[0];\nh q[7];\n", cfg)
		if err == nil || !strings.Contains(err.Error(), "strict register bounds") {
			t.Fatalf("parallel=%v: err = %v, want a strict-register-bounds error", parallel, err)
		}
	}
}

func TestRejectsOversizedWindow(t *testing.T) {
	cfg := Config{Graph: topo.Line(4), Window: MaxWindow + 1}
	if _, _, err := compile(t, context.Background(), program(3, 10), cfg); err == nil {
		t.Fatal("Compile accepted a window above MaxWindow")
	}
	cfg.Window = MaxWindow
	if _, _, err := compile(t, context.Background(), program(3, 10), cfg); err != nil {
		t.Fatalf("window MaxWindow: %v", err)
	}
}
