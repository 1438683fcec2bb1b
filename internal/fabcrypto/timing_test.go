//go:build timing

package fabcrypto

import (
	"fmt"
	"math"
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
// TestTimingDetects shows that it can fail: the unblinded variable-time
// inversion of a fixed small nonce must exceed the threshold.

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
// reps calls of op(i) per sample, in sample order.
func measureTiming(n, reps int, prep func(i int, fixed bool), op func(i int)) timingResult {
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
		for r := 0; r < reps; r++ {
			op(i)
		}
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(reps)
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

// fixedSecret is the fixed class's secret, a small one: an extreme input
// (three zero limbs, a short run of divsteps) where a leak shows most.
var fixedSecret = [4]uint64{0x1d}

// TestTimingConstantTime runs every routine a secret touches through the
// two classes: ordMul (the kernel where GOARCH has one) and ordMulGeneric on
// a secret and a public factor, the masked addition, the blinded inversion
// and the whole signer, the fixed class signing one digest under one key
// (one nonce), the random class a fresh key and digest each time.
func TestTimingConstantTime(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const n = 20000
	secret, public := make([][4]uint64, n), make([][4]uint64, n)
	var sink [4]uint64
	prepScalar := func(i int, fixed bool) {
		if secret[i] = randomScalar(rng); fixed {
			secret[i] = fixedSecret
		}
		public[i] = randomScalar(rng)
	}
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
	for _, tg := range []struct {
		name    string
		n, reps int
		prep    func(int, bool)
		op      func(int)
	}{
		{"ordMul", n, 64, prepScalar, func(i int) { ordMul(&sink, &secret[i], &public[i]) }},
		{"ordMulGeneric", n, 64, prepScalar, func(i int) { ordMulGeneric(&sink, &secret[i], &public[i]) }},
		{"ordAdd", n, 64, prepScalar, func(i int) { ordAdd(&sink, &secret[i], &public[i]) }},
		{"ordInvBlinded", n, 1, prepScalar, func(i int) {
			if _, err := ordInvBlinded(&secret[i]); err != nil {
				t.Fatal(err)
			}
		}},
		{"SignDigest", len(signers), 1, prepSigner, func(i int) {
			if _, err := signers[i].SignDigest(digests[i][:]); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		r := measureTiming(tg.n, tg.reps, tg.prep, tg.op)
		t.Logf("%s: %v", tg.name, r)
		if math.Abs(r.t) > timingThreshold {
			t.Errorf("%s leaks its secret: %v", tg.name, r)
		}
	}
}

// TestTimingDetects plants the leak the blinding exists to prevent: the
// variable-time inversion handed the nonce itself, the fixed small one
// against random ones. The test must see it.
func TestTimingDetects(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const n = 20000
	k := make([][4]uint64, n)
	var sink [4]uint64
	r := measureTiming(n, 1, func(i int, fixed bool) {
		if k[i] = randomScalar(rng); fixed {
			k[i] = fixedSecret
		}
	}, func(i int) { ordInvVar(&sink, &k[i]) })
	t.Logf("unblinded ordInvVar(k): %v", r)
	if math.Abs(r.t) <= timingThreshold {
		t.Errorf("the timing test missed the unblinded inversion of a fixed small nonce: %v", r)
	}
}
