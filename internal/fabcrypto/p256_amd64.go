package fabcrypto

// The field kernel in p256_amd64.s. Both read every input limb before they
// store, so z may alias x or y.

// feMul sets z = x·y·2⁻²⁵⁶ mod p.
//
//go:noescape
func feMul(z, x, y *fe)

// feSqrN sets z = x^(2ⁿ) (n Montgomery squarings), for n ≥ 1.
//
//go:noescape
func feSqrN(z, x *fe, n int)
