package compiler

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"trios/internal/decompose"
	"trios/internal/qasm"
	"trios/internal/topo"
)

// streamDigests pins the streamed output bytes, optimize on and off, as
// SHA-256 digests. With optimize on, per-window saturation differs from
// global saturation, so no monolithic compile reproduces these bytes; the
// digests are what holds them still.
var streamDigests = map[string]string{
	"baseline/auto/w64/opt=false":     "7e151a3297b41ab0c3e47e3ef9992e3e42f349eb1d660413618afddaf6540d04",
	"baseline/auto/w64/opt=true":      "96ae788184650143230c1e7ff439c35c989d19d4c42ade03f1ad4790cd128da8",
	"baseline/auto/w4096/opt=false":   "7e151a3297b41ab0c3e47e3ef9992e3e42f349eb1d660413618afddaf6540d04",
	"baseline/auto/w4096/opt=true":    "ee5d86569a6020e70411ab46f34c74a574b0a342129e7b4c25559d7707057702",
	"baseline/6-cnot/w64/opt=false":   "7e151a3297b41ab0c3e47e3ef9992e3e42f349eb1d660413618afddaf6540d04",
	"baseline/6-cnot/w64/opt=true":    "96ae788184650143230c1e7ff439c35c989d19d4c42ade03f1ad4790cd128da8",
	"baseline/6-cnot/w4096/opt=false": "7e151a3297b41ab0c3e47e3ef9992e3e42f349eb1d660413618afddaf6540d04",
	"baseline/6-cnot/w4096/opt=true":  "ee5d86569a6020e70411ab46f34c74a574b0a342129e7b4c25559d7707057702",
	"baseline/8-cnot/w64/opt=false":   "7054b0b30a73143409d5644b8924979ccab4ac6080502589f25483fe6094dfc6",
	"baseline/8-cnot/w64/opt=true":    "cc2f00fbf7b4292706b1be4c29f66635b0c816d0a4d969410a85cc656633cdda",
	"baseline/8-cnot/w4096/opt=false": "7054b0b30a73143409d5644b8924979ccab4ac6080502589f25483fe6094dfc6",
	"baseline/8-cnot/w4096/opt=true":  "c09ca222949c5aba735bcb3b9f9ce00da638bd456354d8741024d757c7af2bfe",
	"trios/auto/w64/opt=false":        "bdacc3aa98c521c110e6086627437b888f0a5719216708cd8d0a2b3b9f2594b6",
	"trios/auto/w64/opt=true":         "131334a31f7f36fe57c826afed8a3eb03278f1b2fcd5b4d6a7a0115827cb8525",
	"trios/auto/w4096/opt=false":      "bdacc3aa98c521c110e6086627437b888f0a5719216708cd8d0a2b3b9f2594b6",
	"trios/auto/w4096/opt=true":       "2831219af8758976027b47ee33d2931b27fc018c5866ab398b2fb85908664e84",
	"trios/6-cnot/w64/opt=false":      "d105d3c5430df199dfb0a87e77cdb5a98c3b6c4130ff99a2b9fcb9c2b368eb09",
	"trios/6-cnot/w64/opt=true":       "d59f777e62c398c4be8f6863d5ff907acc9ee2cb9806b2ce1cac8a5fedcff43a",
	"trios/6-cnot/w4096/opt=false":    "d105d3c5430df199dfb0a87e77cdb5a98c3b6c4130ff99a2b9fcb9c2b368eb09",
	"trios/6-cnot/w4096/opt=true":     "50df1f4adc5c2482eb5e19b0a0f3d6d65175737c69c60e81dbfe90639c2f4ebb",
	"trios/8-cnot/w64/opt=false":      "bdacc3aa98c521c110e6086627437b888f0a5719216708cd8d0a2b3b9f2594b6",
	"trios/8-cnot/w64/opt=true":       "131334a31f7f36fe57c826afed8a3eb03278f1b2fcd5b4d6a7a0115827cb8525",
	"trios/8-cnot/w4096/opt=false":    "bdacc3aa98c521c110e6086627437b888f0a5719216708cd8d0a2b3b9f2594b6",
	"trios/8-cnot/w4096/opt=true":     "2831219af8758976027b47ee33d2931b27fc018c5866ab398b2fb85908664e84",
}

// TestStreamOutputDigests compiles mixedCircuit through StreamCompile for
// both streamable pipelines, every Toffoli mode, a splitting and a
// whole-circuit window, and optimize off and on, serial and pipelined, and
// requires the output's digest to equal the pinned one.
func TestStreamOutputDigests(t *testing.T) {
	src, err := qasm.Emit(mixedCircuit(16, 3000, 41))
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Johannesburg()
	for _, pipeline := range []Pipeline{Conventional, TriosPipeline} {
		for _, mode := range []decompose.ToffoliMode{decompose.Auto, decompose.Six, decompose.Eight} {
			for _, window := range []int{64, 4096} {
				for _, optimize := range []bool{false, true} {
					key := fmt.Sprintf("%v/%v/w%d/opt=%v", pipeline, mode, window, optimize)
					for _, parallel := range []bool{false, true} {
						opts := StreamOptions{Window: window, Parallel: parallel}
						opts.Pipeline, opts.Mode, opts.Seed, opts.Optimize = pipeline, mode, 3, optimize
						var out bytes.Buffer
						if _, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts); err != nil {
							t.Fatalf("%s: StreamCompile: %v", key, err)
						}
						sum := sha256.Sum256(out.Bytes())
						if got := hex.EncodeToString(sum[:]); got != streamDigests[key] {
							t.Errorf("%s parallel=%v: digest %s, want %s", key, parallel, got, streamDigests[key])
						}
					}
				}
			}
		}
	}
}
