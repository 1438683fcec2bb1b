//go:build timing

package fabcrypto

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The timing test, after dudect (Reparaz, Balasch and Verbauwhede, "Dude, is
// my code constant time?", DATE 2017): every target runs on two classes of
// secret input — one fixed value, and fresh random values — interleaved in a
// random order, each call timed, and Welch's t-statistic compares the two
// classes' times, on all of them and on the times below several percentiles
// (cropping the tail that interrupts and the collector add to either class).
// A |t| above timingThreshold says the time depends on the secret.
//
// It is what the signer's constant-time claim (sign.go) means, and no more:
// the secret-handling routines on this host's GOARCH, at this resolution. It
// carries a build tag because timing on a shared machine is noisy and slow to
// settle; run it with
//
//	go test -tags timing -run TestTiming -count=1 ./internal/fabcrypto/
//
// TestTimingDetects shows that it can fail: three planted leaks, down to
// one secret-dependent branch in ordMulGeneric and to table reads whose
// addresses alone depend on the secret, must exceed the threshold.

// timingThreshold is dudect's bound for "definitely not constant time".
const timingThreshold = 10

// timingCrops are the percentiles the times are cropped at, beside no crop.
var timingCrops = []float64{0.5, 0.75, 0.9, 0.99}

// timingResult is the largest |t| over the crops, and where it was found.
type timingResult struct {
	t               float64
	crop            float64 // 1 = no crop
	fixedNs, randNs float64 // the class means at that crop, per call
}

func (r timingResult) String() string {
	slower := "fixed"
	if r.randNs > r.fixedNs {
		slower = "random"
	}
	return fmt.Sprintf("|t| = %.1f below the %.0fth percentile: fixed class %.1f ns, random class %.1f ns per call (%s slower)",
		math.Abs(r.t), 100*r.crop, r.fixedNs, r.randNs, slower)
}

// measureTiming draws a random class for each of n samples, lets prep set
// sample i's input up (fixed or random) before anything is timed, then times
// one call of op(i) per sample, in sample order. One call, not a loop of
// them: a loop on one input trains the branch predictor on that input, and
// a secret-dependent branch would be mispredicted only on its first pass.
func measureTiming(n int, prep func(i int, fixed bool), op func(i int)) timingResult {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	fixed := make([]bool, n)
	for i := range fixed {
		fixed[i] = rng.Intn(2) == 0
		prep(i, fixed[i])
	}
	for i := 0; i < min(n, 100); i++ { // warm up caches and predictors
		op(i)
	}
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		op(i)
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	sorted := slices.Sorted(slices.Values(ns))
	best := welch(ns, fixed, math.Inf(1))
	best.crop = 1
	for _, p := range timingCrops {
		r := welch(ns, fixed, sorted[int(p*float64(n-1))])
		if r.crop = p; math.Abs(r.t) > math.Abs(best.t) {
			best = r
		}
	}
	return best
}

// welch is Welch's t-statistic of the fixed against the random class over
// the times at most limit.
func welch(ns []float64, fixed []bool, limit float64) timingResult {
	var cnt, mean, m2 [2]float64 // Welford, per class
	for i, x := range ns {
		if x > limit {
			continue
		}
		c := 0
		if !fixed[i] {
			c = 1
		}
		cnt[c]++
		d := x - mean[c]
		mean[c] += d / cnt[c]
		m2[c] += d * (x - mean[c])
	}
	if cnt[0] < 2 || cnt[1] < 2 {
		return timingResult{}
	}
	se := math.Sqrt(m2[0]/(cnt[0]-1)/cnt[0] + m2[1]/(cnt[1]-1)/cnt[1])
	if se == 0 {
		return timingResult{fixedNs: mean[0], randNs: mean[1]}
	}
	return timingResult{t: (mean[0] - mean[1]) / se, fixedNs: mean[0], randNs: mean[1]}
}

// randomScalar is a uniform value in [1, n).
func randomScalar(rng *rand.Rand) [4]uint64 {
	for {
		v := [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		if v != ([4]uint64{}) && lessThan(&v, &nLimbs) {
			return v
		}
	}
}

// combSamples is how many calls of the comb's sum are timed, the real
// one's and its mutant's alike. The mutant's leak is 100–350 ns on a call
// whose time varies by about a microsecond with the host: timed with the
// blinded inversion, whose time varies too, it read |t| of 8–10 at 100 000
// calls and 7–42 at 400 000; the sum alone at 800 000 reads 21–157.
const combSamples = 800000

// fixedSecret is the fixed class's secret, a small one: an extreme input
// (three zero limbs, a short run of divsteps) where a leak shows most.
var fixedSecret = [4]uint64{0x1d}

// timingTarget is one routine timed on the two classes: prep sets sample
// i's input up, op runs it.
type timingTarget struct {
	name string
	n    int
	prep func(i int, fixed bool)
	op   func(i int)
}

// scalarClasses returns the scalar targets' inputs: a secret (fixedSecret
// or random) and a random public factor per sample, and a random field
// element per sample for the comb's blinding.
func scalarClasses(rng *rand.Rand, n int) (secret, public [][4]uint64, beta []fe, prep func(int, bool)) {
	secret, public, beta = make([][4]uint64, n), make([][4]uint64, n), make([]fe, n)
	return secret, public, beta, func(i int, fixed bool) {
		if secret[i] = randomScalar(rng); fixed {
			secret[i] = fixedSecret
		}
		public[i] = randomScalar(rng)
		for beta[i] == (fe{}) || !lessThan((*[4]uint64)(&beta[i]), &pLimbs) {
			beta[i] = fe(randomScalar(rng))
		}
	}
}

// combTarget times the comb's sum, recoded from a secret (fixedSecret or
// random) and selected by sel, on combSamples calls.
func combTarget(rng *rand.Rand, name string, sel func(*laneComb, *[combRounds][combEntries]laneAffine)) timingTarget {
	k := make([][4]uint64, combSamples)
	return timingTarget{name, combSamples, func(i int, fixed bool) {
		if k[i] = randomScalar(rng); fixed {
			k[i] = fixedSecret
		}
	}, func(i int) {
		var c laneComb
		c.recode(&k[i])
		sel(&c, gCombLanes())
		c.sum()
	}}
}

// TestTimingConstantTime runs every routine a secret touches through the
// two classes: ordMul (the kernel where GOARCH has one) and ordMulGeneric on
// a secret and a public factor, the masked addition, the blinded inversion,
// k·G (scalarBaseX: the lanes' comb where the CPU has them, else
// crypto/ecdh), on the lanes the comb's sum alone at combSamples, and the
// whole signer, the fixed class signing one digest under one key (one
// nonce), the random class a fresh key and digest each time.
func TestTimingConstantTime(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const n = 200000
	secret, public, beta, prepScalar := scalarClasses(rng, n)
	var sink [4]uint64
	signers := make([]*Signer, 4000)
	digests := make([][HashSize]byte, len(signers))
	prepSigner := func(i int, fixed bool) {
		name, h := fmt.Sprint(rng.Uint64()), randomScalar(rng)
		if fixed {
			name, h = "fixed", [4]uint64{1, 2, 3, 4}
		}
		signers[i] = DeriveSigner([]byte("timing"), name)
		bytesFromLimbs(&digests[i], h)
	}
	targets := []timingTarget{
		{"ordMul", n, prepScalar, func(i int) { ordMul(&sink, &secret[i], &public[i]) }},
		{"ordMulGeneric", n, prepScalar, func(i int) { ordMulGeneric(&sink, &secret[i], &public[i]) }},
		{"ordAdd", n, prepScalar, func(i int) { ordAdd(&sink, &secret[i], &public[i]) }},
		{"ordInvBlinded", n, prepScalar, func(i int) { sink = ordInvBlinded(&secret[i], &public[i]) }},
		{"scalarBaseX", n, prepScalar, func(i int) {
			var err error
			if sink, err = scalarBaseX(&secret[i], &beta[i], combBase()); err != nil {
				t.Fatal(err)
			}
		}},
	}
	if haveLanes { // the comb without its blinded inversion, whose time varies
		targets = append(targets, combTarget(rng, "the comb's sum (k·G before its inversion)", lanesCombSelect))
	}
	targets = append(targets, []timingTarget{
		{"SignDigest", len(signers), prepSigner, func(i int) {
			if _, err := signers[i].SignDigest(digests[i][:]); err != nil {
				t.Fatal(err)
			}
		}},
	}...)
	for _, tg := range targets {
		r := measureTiming(tg.n, tg.prep, tg.op)
		t.Logf("%s: %v", tg.name, r)
		if math.Abs(r.t) > timingThreshold {
			t.Errorf("%s leaks its secret: %v", tg.name, r)
		}
	}
}

// TestTimingDetects plants three leaks, each against the fixed small secret
// and random ones, and the test must see every one: the variable-time
// inversion handed the nonce itself (what the blinding prevents), one
// secret-dependent branch (ordMulGeneric's final select put back as the
// branch it once was), and the comb's sum reading only the table entries
// the digits select (what the lanes' masked scan prevents: here only the
// addresses depend on k, through the cache).
func TestTimingDetects(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const n = 200000
	secret, public, _, prep := scalarClasses(rng, n)
	var sink [4]uint64
	targets := []timingTarget{
		{"unblinded ordInvVar(k)", n, prep, func(i int) { ordInvVar(&sink, &secret[i]) }},
		{"ordMulGeneric with a branch for its final select", n, prep, func(i int) { ordMulBranchy(&sink, &secret[i], &public[i]) }},
	}
	if haveLanes {
		targets = append(targets, combTarget(rng, "the comb's sum reading only the selected entries", lookupSelect))
	} else {
		t.Log("no lanes: the comb's mutant is not run")
	}
	for _, tg := range targets {
		r := measureTiming(tg.n, tg.prep, tg.op)
		t.Logf("%s: %v", tg.name, r)
		if math.Abs(r.t) <= timingThreshold {
			t.Errorf("the timing test missed %s: %v", tg.name, r)
		}
	}
}

// ordMulBranchy is ordMulGeneric with its final select a branch on the
// result, as it was before the signer shared it: a mutant.
func ordMulBranchy(z, x, y *[4]uint64) {
	var a [5]uint64
	for _, xi := range *x {
		top := mulAdd(&a, xi, y)
		top += mulAdd(&a, a[0]*nNegInv, &nLimbs)
		a = [5]uint64{a[1], a[2], a[3], a[4], top}
	}
	var d [4]uint64
	var b uint64
	for j := range d {
		d[j], b = bits.Sub64(a[j], nLimbs[j], b)
	}
	if a[4] == 0 && b == 1 {
		copy(d[:], a[:4])
	}
	*z = d
}

// lookupSelect is lanesCombSelect as a table lookup, a mutant: each lane
// reads only the entry its digit selects (entry 32's place for a zero
// digit, then masked to zero), so no branch depends on k, only which cache
// lines are read.
func lookupSelect(c *laneComb, tab *[combRounds][combEntries]laneAffine) {
	for r := range combRounds {
		for l := range 8 {
			d := c.digit[8*r+l]
			e, keep := &tab[r][(d+combEntries-1)%combEntries], -((d | -d) >> 63)
			for j := range 5 {
				c.sel[r].x[j][l] = e.x[j][l] & keep
				c.sel[r].y[j][l] = e.y[j][l] & keep
			}
		}
	}
}
