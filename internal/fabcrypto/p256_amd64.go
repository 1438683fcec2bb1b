package fabcrypto

// The field kernel in p256_amd64.s. Every routine reads each input limb
// before it stores a result, so z may alias x or y, and r may alias p or q.

// feMul sets z = x·y·2⁻²⁵⁶ mod p.
//
//go:noescape
func feMul(z, x, y *fe)

// feSqrN sets z = x^(2ⁿ) (n Montgomery squarings), for n ≥ 1.
//
//go:noescape
func feSqrN(z, x *fe, n int)

// addAffine is addAffineGeneric in one call.
//
//go:noescape
func addAffine(r, p, q *affinePoint, inv *fe)

// invertAll is invertAllGeneric with each of its two passes in one call.
//
// bmaclint:noalloc
func invertAll(xs, prefix []fe) {
	if len(xs) == 0 {
		return
	}
	prefix = prefix[:len(xs)]
	prefixProducts(prefix, xs)
	var inv fe
	feInvVar(&inv, &prefix[len(xs)-1])
	backSubstitute(xs, prefix, &inv)
}

// prefixProducts sets prefix[i] = xs[0]·…·xs[i], for 1 ≤ len(xs) ≤
// len(prefix).
//
//go:noescape
func prefixProducts(prefix, xs []fe)

// backSubstitute replaces every xs[i] by its inverse, given prefixProducts'
// prefix and inv = 1/(xs[0]·…·xs[n−1]), for 1 ≤ n = len(xs) ≤ len(prefix).
//
//go:noescape
func backSubstitute(xs, prefix []fe, inv *fe)

// ordMul sets z = x·y·2⁻²⁵⁶ mod n, for x·y < n·2²⁵⁶.
//
//go:noescape
func ordMul(z, x, y *[4]uint64)

// The 8-lane kernel of the affine levels, p256_lanes_amd64.s, generated by
// p256_lanes_gen.go. A laneFE is eight field elements in radix 2⁵²; see
// laneLevel (keytable.go) for what the two passes compute.

//go:generate sh -c "go run p256_lanes_gen.go > p256_lanes_amd64.s"

// laneMul sets every lane of z to x·y·2⁻²⁶⁰ mod p, below 2²⁵⁷, for lanes of
// x and y below 2²⁵⁸ in 52-bit limbs. Only the tests call it.
//
//go:noescape
func laneMul(z, x, y *laneFE)

// laneSub sets every lane of z to x − y mod p, canonical, for lanes of x and
// y below 2p in 52-bit limbs. Only the tests call it.
//
//go:noescape
func laneSub(z, x, y *laneFE)

//go:noescape
func lanesPrefix(pts, next *affinePoint, idx *int32, pre *laneFE, groups int)

//go:noescape
func lanesChord(pts, next *affinePoint, idx *int32, pre *laneFE, tmp *laneTemps, groups, tail int)

// The signer's comb (sign_lanes.go), on a laneComb.

// lanesCombSelect sets c.sel[r] to entry c.digit[r] of round r's tables
// (0 for a zero digit), every entry read for every lane.
//
//go:noescape
func lanesCombSelect(c *laneComb, tab *[combRounds][combEntries]laneAffine)

// lanesCombStart sets the running sums to round 0's entries, y negated where
// the digit is negative, or to the identity (0 : 1 : 0) where it is zero.
//
//go:noescape
func lanesCombStart(c *laneComb)

// lanesCombAdd adds round r's entries into the running sums, likewise, by
// the complete mixed addition, and keeps the sum where the digit is not
// zero.
//
//go:noescape
func lanesCombAdd(c *laneComb, r int)

// lanesCombine adds lane (l + s) mod 8's running sum into lane l's, in every
// lane, by the complete full addition.
//
//go:noescape
func lanesCombine(c *laneComb, s int)

// lanesCanonical sets every lane of z to x mod p, canonical, for lanes of x
// below 2²⁶⁰ in 52-bit limbs. z may alias x.
//
//go:noescape
func lanesCanonical(z, x *laneFE)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (xcr0 uint32)

// haveLanes reports, from CPUID and XGETBV at package init, whether the CPU
// has AVX-512F, AVX-512DQ and AVX-512 IFMA and the OS saves the zmm and
// mask registers; lanesMissing names what is missing when it does not.
var haveLanes, lanesMissing = detectAVX512(avx512F, avx512DQ, avx512IFMA)

// CPUID leaf 7 (EBX) bits of the AVX-512 extensions the kernels use.
var (
	avx512F    = cpuFeature{1 << 16, "AVX-512F"}
	avx512DQ   = cpuFeature{1 << 17, "AVX-512DQ"}
	avx512IFMA = cpuFeature{1 << 21, "AVX-512 IFMA"}
	avx512BW   = cpuFeature{1 << 30, "AVX-512BW"}
)

type cpuFeature struct {
	bit  uint32
	name string
}

// detectAVX512 reports whether the CPU has every one of features and the OS
// saves the zmm and mask registers, and names what is missing when not.
func detectAVX512(features ...cpuFeature) (bool, string) {
	if leaves, _, _, _ := cpuid(0, 0); leaves < 7 {
		return false, "CPUID leaf 7"
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false, "OSXSAVE"
	}
	const sseAVXOpmaskZMM = 0xe6 // XCR0: XMM, YMM, opmask and both halves of the zmm state
	if xgetbv()&sseAVXOpmaskZMM != sseAVXOpmaskZMM {
		return false, "OS support for the opmask and zmm state (XCR0)"
	}
	_, ebx, _, _ := cpuid(7, 0)
	missing := ""
	for _, f := range features {
		if ebx&f.bit == 0 {
			missing += " " + f.name
		}
	}
	if missing != "" {
		return false, missing[1:]
	}
	return true, ""
}
