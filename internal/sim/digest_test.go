package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// kernelAmplitudeDigests pins the dense kernels' output on the
// TestKernelsBitIdenticalToLegacy workloads as SHA-256 digests of the final
// amplitudes' bit patterns. They were generated while the kernels and the
// legacy full-scan loops agreed bit for bit, so they hold the kernels still
// independently of the legacy loops.
var kernelAmplitudeDigests = map[int64]string{
	0:  "b2dbf63b352ca8a10fd92d3179dbb40ddac41451477b0922d0dc742b28af7835",
	1:  "d79bfa37aa2782bea956d66e2395f8c3dc94f63120c117727eda433adc031983",
	2:  "27acd2398862df89df2af79b2b563c579c2dd345a33c621fb340e43a710db47a",
	3:  "37acf6131469e1ee26195b9ce8d3b6dd52a1bddfdf2493d983f09198e82cedfb",
	4:  "0aebb20cb018deab5c501b57249ce2fe87f5191559583f799d5a918cc9776f9f",
	5:  "7db662b166ece71c8ab03c66b4506685cc1a1c255265f6b53e65287505b0a8a3",
	6:  "47e5553b557ab3e0eaa500ffa1d419854113541224f85a04872336d15a20f9fc",
	7:  "6fa6929d36818153737cdfad015ec6027e66a052327bdff6c2563ac708394461",
	8:  "2c815624803d7d71605309905cf52fbb9a180094b1b4e90fda2ff4f07e4e50ed",
	9:  "09b520be203e1de939e45a5cc4ba2eb2f72e2061fb1496abd05ac5d6e97d1c32",
	10: "bc8eb28f9fc14f50652acf82968aae0f1d3a27a667136767772623744089e6b8",
	11: "a6c427a1398bd6393d56064675f3371042486010d919f3ff46d093d058c01ed4",
	12: "dae3f08304f6c352259890c3ec946e38990fc839afd35a9d98236287dce09e10",
	13: "b4adfd3c4c804d6ee0779eebf8985684feeea90448fd6618ff9b0d1cbc375d86",
	14: "064f521188b07cdbf4f50175acbc02640d15f2280f455d840f1a15003d68775b",
	15: "ebf5856c044d04c851451e179d82dfa5bb9cd4bd2c821d7785e517626ad05824",
	16: "1949a0141ac6af17da98d29955a5bae66e279922506c45ffb0926ed0ff1c398a",
	17: "04af8f4977a9223058a0b7eb69933e7aa0ba9b9136307a0de2ed0babe66d127c",
	18: "12964c772b61c664f3f27e3747f2ef46f410c21719a26d4e8e82546a5d07f162",
	19: "8e3ec094b45f4e04049f917e83dcb43fc2da757fed8c74ef247a4783a6d35c99",
}

// amplitudeDigest hashes every amplitude's real and imaginary float64 bits,
// little-endian, in index order.
func amplitudeDigest(s *State) string {
	h := sha256.New()
	var buf [16]byte
	for _, a := range s.amp {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(a)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(a)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelAmplitudeDigests replays the kernel golden workloads (seeds
// 0-19: a random mixed circuit on 4-7 qubits applied to a random state) and
// checks each final state against its pinned digest.
func TestKernelAmplitudeDigests(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		c := randomMixedCircuit(rng, n, 40)
		s := NewRandomState(n, seed+100)
		if err := s.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		if got := amplitudeDigest(s); got != kernelAmplitudeDigests[seed] {
			t.Errorf("seed %d: digest %s, want %s", seed, got, kernelAmplitudeDigests[seed])
		}
	}
}
