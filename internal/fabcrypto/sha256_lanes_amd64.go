package fabcrypto

// The 16-lane SHA-256 kernel of HashBatch, sha256_lanes_amd64.s, generated
// by sha256_lanes_gen.go.

//go:generate sh -c "go run sha256_lanes_gen.go > sha256_lanes_amd64.s"

// sha256Lanes hashes n ≥ 1 blocks into each lane l of h, block j from
// p[l] + 64·j.
//
//go:noescape
func sha256Lanes(h *hashState, p *[16]*byte, n int)

// haveHashLanes reports, from CPUID and XGETBV at package init, whether the
// CPU has AVX-512F and AVX-512BW and the OS saves the zmm and mask
// registers; hashLanesMissing names what is missing when it does not.
var haveHashLanes, hashLanesMissing = detectAVX512(avx512F, avx512BW)
