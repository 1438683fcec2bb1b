//go:build !amd64

package fabcrypto

// Without the amd64 kernel the field and the scalars run on the portable limb
// code of p256.go.

func feMul(z, x, y *fe) { feMulGeneric(z, x, y) }

func feSqrN(z, x *fe, n int) { feSqrNGeneric(z, x, n) }

func addAffine(r, p, q *affinePoint, inv *fe) { addAffineGeneric(r, p, q, inv) }

func invertAll(xs, prefix []fe) { invertAllGeneric(xs, prefix) }

func ordMul(z, x, y *[4]uint64) { ordMulGeneric(z, x, y) }

// No 8-lane kernel: the affine levels run on the scalar routines above.
const haveLanes, lanesMissing = false, "amd64"

func laneMul(z, x, y *laneFE) { panic("fabcrypto: no 8-lane kernel on this GOARCH") }

func laneSub(z, x, y *laneFE) { panic("fabcrypto: no 8-lane kernel on this GOARCH") }

func lanesPrefix(pts, next *affinePoint, idx *int32, pre *laneFE, groups int) {
	panic("fabcrypto: no 8-lane kernel on this GOARCH")
}

func lanesChord(pts, next *affinePoint, idx *int32, pre *laneFE, tmp *laneTemps, groups, tail int) {
	panic("fabcrypto: no 8-lane kernel on this GOARCH")
}

func lanesCombSelect(c *laneComb, tab *[combRounds][combEntries]laneAffine) {
	panic("fabcrypto: no 8-lane kernel on this GOARCH")
}

func lanesCombStart(c *laneComb) { panic("fabcrypto: no 8-lane kernel on this GOARCH") }

func lanesCombAdd(c *laneComb, r int) { panic("fabcrypto: no 8-lane kernel on this GOARCH") }

func lanesCombine(c *laneComb, s int) { panic("fabcrypto: no 8-lane kernel on this GOARCH") }

func lanesCanonical(z, x *laneFE) { panic("fabcrypto: no 8-lane kernel on this GOARCH") }
