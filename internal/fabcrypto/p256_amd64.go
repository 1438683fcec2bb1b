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
