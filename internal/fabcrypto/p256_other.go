//go:build !amd64

package fabcrypto

// Without the amd64 kernel the field runs on the portable limb code of
// p256.go.

func feMul(z, x, y *fe) { feMulGeneric(z, x, y) }

func feSqrN(z, x *fe, n int) { feSqrNGeneric(z, x, n) }
