package compiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/decompose"
	"trios/internal/qasm"
	"trios/internal/topo"
)

// optimizeDigests pins the compiled output bytes with Optimize on as SHA-256
// digests of qasm.Emit(Compile(...).Physical). They were generated while the
// saturating engine still ran next to the legacy cancel loop, and they hold
// the optimizer's output still now that it is the only one.
var optimizeDigests = map[string]string{
	"grovers-9/baseline/direct/auto/seed=1":          "2c76e4fd4722088cb6381d19f97ac5d1888c7f1a0a9f22c0a3680546b0d19367",
	"grovers-9/baseline/direct/auto/seed=7":          "3fe3a0474a235db43ddd4b82ca7b87fe12ada2498753faed59165503097c0a06",
	"grovers-9/baseline/direct/6-cnot/seed=1":        "2c76e4fd4722088cb6381d19f97ac5d1888c7f1a0a9f22c0a3680546b0d19367",
	"grovers-9/baseline/direct/6-cnot/seed=7":        "3fe3a0474a235db43ddd4b82ca7b87fe12ada2498753faed59165503097c0a06",
	"grovers-9/baseline/direct/8-cnot/seed=1":        "d2275c9f3e1b6b3210b5f797fd46cbffa8d6cff04604b2d2d1b0a0159d7d3eef",
	"grovers-9/baseline/direct/8-cnot/seed=7":        "3edf5e8ba0df16751dfa13d5f0b564a23e2706b1898348bb2a08a0592693d2a8",
	"grovers-9/baseline/stochastic/auto/seed=1":      "04527897537e26cad0dac640c841d7c3314f10c0f4d7d43ad0a6d92ee6326382",
	"grovers-9/baseline/stochastic/auto/seed=7":      "66c06d37534706b5db2a4ec72c4eb3cbee2df018e5db74cdbcfb07cc61b76c8f",
	"grovers-9/baseline/stochastic/6-cnot/seed=1":    "04527897537e26cad0dac640c841d7c3314f10c0f4d7d43ad0a6d92ee6326382",
	"grovers-9/baseline/stochastic/6-cnot/seed=7":    "66c06d37534706b5db2a4ec72c4eb3cbee2df018e5db74cdbcfb07cc61b76c8f",
	"grovers-9/baseline/stochastic/8-cnot/seed=1":    "0705f1c2a263cf339b683f84d5ca0c5f16fc7eb3400ad081e2c7e2415824bca0",
	"grovers-9/baseline/stochastic/8-cnot/seed=7":    "a3503394789a78531afeb9a0788bfe1d0d72a80a2f40fd510b1c65cfa84c927a",
	"grovers-9/baseline/lookahead/auto/seed=1":       "cd64dccfecb5dc6718f40cf89063f817e3ab1359a13de88e6fe63bf999afd498",
	"grovers-9/baseline/lookahead/auto/seed=7":       "cd64dccfecb5dc6718f40cf89063f817e3ab1359a13de88e6fe63bf999afd498",
	"grovers-9/baseline/lookahead/6-cnot/seed=1":     "cd64dccfecb5dc6718f40cf89063f817e3ab1359a13de88e6fe63bf999afd498",
	"grovers-9/baseline/lookahead/6-cnot/seed=7":     "cd64dccfecb5dc6718f40cf89063f817e3ab1359a13de88e6fe63bf999afd498",
	"grovers-9/baseline/lookahead/8-cnot/seed=1":     "2817eb5dfb2a1a380710fde74f2f8e28716914a760d5e25d09e06e66337fdcf1",
	"grovers-9/baseline/lookahead/8-cnot/seed=7":     "2817eb5dfb2a1a380710fde74f2f8e28716914a760d5e25d09e06e66337fdcf1",
	"grovers-9/trios/direct/auto/seed=1":             "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/trios/direct/auto/seed=7":             "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/trios/direct/6-cnot/seed=1":           "ed3625f1775d0173f8af94f4b797a5233749706c4c6881d02628bfa163da79b2",
	"grovers-9/trios/direct/6-cnot/seed=7":           "ed3625f1775d0173f8af94f4b797a5233749706c4c6881d02628bfa163da79b2",
	"grovers-9/trios/direct/8-cnot/seed=1":           "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/trios/direct/8-cnot/seed=7":           "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/trios/stochastic/auto/seed=1":         "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/trios/stochastic/auto/seed=7":         "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/trios/stochastic/6-cnot/seed=1":       "ed3625f1775d0173f8af94f4b797a5233749706c4c6881d02628bfa163da79b2",
	"grovers-9/trios/stochastic/6-cnot/seed=7":       "ed3625f1775d0173f8af94f4b797a5233749706c4c6881d02628bfa163da79b2",
	"grovers-9/trios/stochastic/8-cnot/seed=1":       "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/trios/stochastic/8-cnot/seed=7":       "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/trios/lookahead/auto/seed=1":          "f5ac2e1e77652941e387fb703dc9bedcc51e044cbb0d53d7a38ea8234e9a4b4e",
	"grovers-9/trios/lookahead/auto/seed=7":          "f5ac2e1e77652941e387fb703dc9bedcc51e044cbb0d53d7a38ea8234e9a4b4e",
	"grovers-9/trios/lookahead/6-cnot/seed=1":        "133958d39222ea0bee0c92609d11bb82cb5b89b8eeed336bf904300f8999285f",
	"grovers-9/trios/lookahead/6-cnot/seed=7":        "909a297ddba45e38c7c66d1509d33b3544097755dd99f58103ddbbaa2246708e",
	"grovers-9/trios/lookahead/8-cnot/seed=1":        "f5ac2e1e77652941e387fb703dc9bedcc51e044cbb0d53d7a38ea8234e9a4b4e",
	"grovers-9/trios/lookahead/8-cnot/seed=7":        "f5ac2e1e77652941e387fb703dc9bedcc51e044cbb0d53d7a38ea8234e9a4b4e",
	"grovers-9/groups/direct/auto/seed=1":            "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/groups/direct/auto/seed=7":            "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/groups/direct/6-cnot/seed=1":          "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/groups/direct/6-cnot/seed=7":          "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/groups/direct/8-cnot/seed=1":          "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"grovers-9/groups/direct/8-cnot/seed=7":          "f255e5a43bf2a842fb630d8d4c9439ef17943d9c21a1644b8ee3b8f104c1a6e5",
	"cnx_dirty-11/baseline/direct/auto/seed=1":       "1ffb5208e2bff5ce0ccca45b91017e53c8e0ca17b997737a45f0a9da7660677c",
	"cnx_dirty-11/baseline/direct/auto/seed=7":       "28a6c82604aae03824ace8298dadcc7354e4e2fc0fcc316e99f274f754facd4a",
	"cnx_dirty-11/baseline/direct/6-cnot/seed=1":     "1ffb5208e2bff5ce0ccca45b91017e53c8e0ca17b997737a45f0a9da7660677c",
	"cnx_dirty-11/baseline/direct/6-cnot/seed=7":     "28a6c82604aae03824ace8298dadcc7354e4e2fc0fcc316e99f274f754facd4a",
	"cnx_dirty-11/baseline/direct/8-cnot/seed=1":     "b51111b1691adcc2986fdfe0f1e5f126177a7b2212df15339ccc900b3fed5bd1",
	"cnx_dirty-11/baseline/direct/8-cnot/seed=7":     "178da14ea4f7ffeefc902b53e2c34e6f3a2e13eec348f0858e0f41a9039c4b9e",
	"cnx_dirty-11/baseline/stochastic/auto/seed=1":   "15012786a23576639db37d75609c244e8ac3cbff99c30dcca5f95f622e10259e",
	"cnx_dirty-11/baseline/stochastic/auto/seed=7":   "873ef01a07f4e124e6dd820523e50bb1d93ec6f01e115b576f690f976ef1146c",
	"cnx_dirty-11/baseline/stochastic/6-cnot/seed=1": "15012786a23576639db37d75609c244e8ac3cbff99c30dcca5f95f622e10259e",
	"cnx_dirty-11/baseline/stochastic/6-cnot/seed=7": "873ef01a07f4e124e6dd820523e50bb1d93ec6f01e115b576f690f976ef1146c",
	"cnx_dirty-11/baseline/stochastic/8-cnot/seed=1": "370958522f623fc79a88d9ecb2b56e44db3681d5d9892c2e7d2bc9afa50a337f",
	"cnx_dirty-11/baseline/stochastic/8-cnot/seed=7": "bafb22b7d8bb515ea2eb1ad33dac9605ee42db298c9121858d6844492d0173a9",
	"cnx_dirty-11/baseline/lookahead/auto/seed=1":    "10f46bcab9a71d9f05f2a14dcc1592e5dd7dc40cd96f0defe7fec9f6bb172ecd",
	"cnx_dirty-11/baseline/lookahead/auto/seed=7":    "10f46bcab9a71d9f05f2a14dcc1592e5dd7dc40cd96f0defe7fec9f6bb172ecd",
	"cnx_dirty-11/baseline/lookahead/6-cnot/seed=1":  "10f46bcab9a71d9f05f2a14dcc1592e5dd7dc40cd96f0defe7fec9f6bb172ecd",
	"cnx_dirty-11/baseline/lookahead/6-cnot/seed=7":  "10f46bcab9a71d9f05f2a14dcc1592e5dd7dc40cd96f0defe7fec9f6bb172ecd",
	"cnx_dirty-11/baseline/lookahead/8-cnot/seed=1":  "c6f282697d42a0d4ab1f8eb99efdefd50299284e9839c65b2c953b3d8c4180f5",
	"cnx_dirty-11/baseline/lookahead/8-cnot/seed=7":  "c6f282697d42a0d4ab1f8eb99efdefd50299284e9839c65b2c953b3d8c4180f5",
	"cnx_dirty-11/trios/direct/auto/seed=1":          "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/trios/direct/auto/seed=7":          "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/trios/direct/6-cnot/seed=1":        "ced84cdf1d2dce96ff9fc806cc7a1cf50a124780d2b48c5cfad51a0d812c49c3",
	"cnx_dirty-11/trios/direct/6-cnot/seed=7":        "ced84cdf1d2dce96ff9fc806cc7a1cf50a124780d2b48c5cfad51a0d812c49c3",
	"cnx_dirty-11/trios/direct/8-cnot/seed=1":        "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/trios/direct/8-cnot/seed=7":        "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/trios/stochastic/auto/seed=1":      "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/trios/stochastic/auto/seed=7":      "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/trios/stochastic/6-cnot/seed=1":    "ced84cdf1d2dce96ff9fc806cc7a1cf50a124780d2b48c5cfad51a0d812c49c3",
	"cnx_dirty-11/trios/stochastic/6-cnot/seed=7":    "ced84cdf1d2dce96ff9fc806cc7a1cf50a124780d2b48c5cfad51a0d812c49c3",
	"cnx_dirty-11/trios/stochastic/8-cnot/seed=1":    "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/trios/stochastic/8-cnot/seed=7":    "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/trios/lookahead/auto/seed=1":       "7978e7786f93a0533a41a8533770e57d5a7d311cb5ac26e58bca3031555a4b43",
	"cnx_dirty-11/trios/lookahead/auto/seed=7":       "7978e7786f93a0533a41a8533770e57d5a7d311cb5ac26e58bca3031555a4b43",
	"cnx_dirty-11/trios/lookahead/6-cnot/seed=1":     "228070ce24358a22dfbb97b8dc239ff461fbf98871d221cf772abd1779bd2647",
	"cnx_dirty-11/trios/lookahead/6-cnot/seed=7":     "ceeeeb6d1aae32d4eeff8cd62f3d027bc1d3017d4b20ef0f264b576c1a6799f6",
	"cnx_dirty-11/trios/lookahead/8-cnot/seed=1":     "7978e7786f93a0533a41a8533770e57d5a7d311cb5ac26e58bca3031555a4b43",
	"cnx_dirty-11/trios/lookahead/8-cnot/seed=7":     "7978e7786f93a0533a41a8533770e57d5a7d311cb5ac26e58bca3031555a4b43",
	"cnx_dirty-11/groups/direct/auto/seed=1":         "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/groups/direct/auto/seed=7":         "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/groups/direct/6-cnot/seed=1":       "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/groups/direct/6-cnot/seed=7":       "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/groups/direct/8-cnot/seed=1":       "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
	"cnx_dirty-11/groups/direct/8-cnot/seed=7":       "55e9e0d9e0c8874348239fb7dc45c1ea7cf6daf7e8a900a2a039b30dac8a6000",
}

// TestCompileOptimizeDigests compiles two Toffoli-heavy benchmarks with
// Optimize on across every pipeline, each pipeline's routers, every Toffoli
// mode and two seeds, and requires each output's digest to equal the pinned
// one.
func TestCompileOptimizeDigests(t *testing.T) {
	g := topo.Johannesburg()
	routers := map[Pipeline][]RouterKind{
		Conventional:   {RouteDirect, RouteStochastic, RouteLookahead},
		TriosPipeline:  {RouteDirect, RouteStochastic, RouteLookahead},
		GroupsPipeline: {RouteDirect}, // Groups always runs its own router
	}
	for _, name := range []string{"grovers-9", "cnx_dirty-11"} {
		b, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, pipeline := range []Pipeline{Conventional, TriosPipeline, GroupsPipeline} {
			for _, router := range routers[pipeline] {
				for _, mode := range []decompose.ToffoliMode{decompose.Auto, decompose.Six, decompose.Eight} {
					for _, seed := range []int64{1, 7} {
						key := fmt.Sprintf("%s/%v/%v/%v/seed=%d", name, pipeline, router, mode, seed)
						res, err := Compile(c, g, Options{Pipeline: pipeline, Router: router, Mode: mode, Seed: seed, Optimize: true})
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						out, err := qasm.Emit(res.Physical)
						if err != nil {
							t.Fatalf("%s: Emit: %v", key, err)
						}
						sum := sha256.Sum256([]byte(out))
						if got := hex.EncodeToString(sum[:]); got != optimizeDigests[key] {
							t.Errorf("%s: digest %s, want %s", key, got, optimizeDigests[key])
						}
					}
				}
			}
		}
	}
}
