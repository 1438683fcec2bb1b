package chaos

import (
	"fmt"
	mrand "math/rand"
	"sync"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/load"
)

// OrderSubmitter receives assembled envelopes (the ordering service);
// *orderer.Orderer implements it, as does any client.Submitter.
type OrderSubmitter interface {
	Submit(*block.Envelope) error
}

// Hostile transaction kinds, in mix order.
const (
	// KindReplay resubmits a captured honest envelope verbatim: the
	// signatures verify, the txid duplicates an already-committed transaction, and the read
	// set is stale — the double-spend storm. Every copy past the first is
	// flagged MVCCReadConflict.
	KindReplay = "replay"
	// KindBadSig repeats envelopes whose client signature is corrupted:
	// every copy costs the verifications of the signatures it carries, and
	// no more.
	KindBadSig = "badsig"
	// KindGarbage submits undecodable payload bytes, rejected by the
	// closed-format transaction parser as BadPayload.
	KindGarbage = "garbage"
	// KindForged submits structurally valid envelopes signed by a
	// self-issued identity with a self-endorsement: certificates parse and
	// signatures verify, but the endorsement policy fails.
	KindForged = "forged"
)

// AdversaryOptions parameterize hostile-traffic injection.
type AdversaryOptions struct {
	// Rate is the hostile fraction of total submitted traffic, in [0, 0.9]
	// (0.5 means one hostile envelope per honest one).
	Rate float64
	// Seed makes the attack traffic deterministic.
	Seed int64
	// Channel is the channel id stamped on forged envelopes.
	Channel string
	// PoolSize bounds the reusable corpus per hostile kind (default 4):
	// small pools model a real flood, where the same garbage is replayed
	// at volume and rejection must amortize to a cache lookup.
	PoolSize int
}

// AdversaryStats counts injected hostile envelopes per kind.
type AdversaryStats struct {
	Replay  int64
	BadSig  int64
	Garbage int64
	Forged  int64
}

// Total sums all kinds.
func (s AdversaryStats) Total() int64 { return s.Replay + s.BadSig + s.Garbage + s.Forged }

// String renders the per-kind counts.
func (s AdversaryStats) String() string {
	return fmt.Sprintf("%d hostile (replay %d, badsig %d, garbage %d, forged %d)",
		s.Total(), s.Replay, s.BadSig, s.Garbage, s.Forged)
}

// Adversary generates and injects hostile transactions into an ordering
// service at a configured fraction of the total traffic. All methods are
// safe for concurrent use (the cluster's load clients share one Adversary).
type Adversary struct {
	opts AdversaryOptions
	ord  OrderSubmitter
	id   *identity.Identity // self-issued; unknown to every policy

	mu       sync.Mutex
	rng      *mrand.Rand       // guarded by mu
	owed     float64           // guarded by mu; hostile submissions owed to keep the rate
	captured []*block.Envelope // guarded by mu; honest envelopes available for replay
	badsig   []*block.Envelope // guarded by mu; reusable corrupt-signature corpus
	garbage  []*block.Envelope // guarded by mu; reusable undecodable corpus
	forged   []*block.Envelope // guarded by mu; reusable self-endorsed corpus
	stats    AdversaryStats    // guarded by mu
}

// NewAdversary creates an adversary submitting to ord. The adversary owns
// a self-issued identity (its own CA, unknown to the honest network), so
// its forged envelopes are structurally perfect yet policy-invalid.
func NewAdversary(opts AdversaryOptions, ord OrderSubmitter) (*Adversary, error) {
	if opts.Rate < 0 || opts.Rate > 0.9 {
		return nil, fmt.Errorf("chaos: adversary rate %.2f out of range [0, 0.9]", opts.Rate)
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	net := identity.NewNetwork([]byte("chaos adversary"))
	if _, err := net.AddOrg("Mallory"); err != nil {
		return nil, fmt.Errorf("chaos: adversary org: %w", err)
	}
	id, err := net.NewIdentity("Mallory", identity.RoleClient)
	if err != nil {
		return nil, fmt.Errorf("chaos: adversary identity: %w", err)
	}
	return &Adversary{
		opts: opts,
		ord:  ord,
		id:   id,
		rng:  mrand.New(mrand.NewSource(opts.Seed ^ 0x5eed)),
	}, nil
}

// Stats snapshots the injected-envelope counters.
func (a *Adversary) Stats() AdversaryStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Tap wraps the honest path to the ordering service, capturing a sample of
// honest envelopes into the replay corpus before forwarding them.
func (a *Adversary) Tap(inner OrderSubmitter) OrderSubmitter {
	return &tapSubmitter{a: a, inner: inner}
}

type tapSubmitter struct {
	a     *Adversary
	inner OrderSubmitter
}

func (t *tapSubmitter) Submit(env *block.Envelope) error {
	t.a.capture(env)
	return t.inner.Submit(env)
}

// capture retains env for replay (bounded reservoir; envelopes are
// immutable once submitted, so sharing the backing bytes is safe).
func (a *Adversary) capture(env *block.Envelope) {
	const corpus = 64
	a.mu.Lock()
	if len(a.captured) < corpus {
		a.captured = append(a.captured, env)
	} else {
		a.captured[a.rng.Intn(corpus)] = env
	}
	a.mu.Unlock()
}

// Wrap decorates an honest load submitter: before each honest submission,
// enough hostile envelopes are injected to hold the hostile fraction of
// total traffic at the configured rate.
func (a *Adversary) Wrap(inner load.Submitter) load.Submitter {
	return &hostileSubmitter{a: a, inner: inner}
}

type hostileSubmitter struct {
	a     *Adversary
	inner load.Submitter
}

func (h *hostileSubmitter) SubmitTx() (string, error) {
	if err := h.a.injectBurst(); err != nil {
		return "", err
	}
	return h.inner.SubmitTx()
}

// injectBurst submits the hostile envelopes owed for one honest
// submission: rate r of total traffic means r/(1-r) hostile per honest,
// accumulated fractionally so any rate is hit exactly in the long run.
func (a *Adversary) injectBurst() error {
	if a.opts.Rate <= 0 {
		return nil
	}
	a.mu.Lock()
	a.owed += a.opts.Rate / (1 - a.opts.Rate)
	n := int(a.owed)
	a.owed -= float64(n)
	a.mu.Unlock()
	for i := 0; i < n; i++ {
		env, err := a.nextHostile()
		if err != nil {
			return err
		}
		if err := a.ord.Submit(env); err != nil {
			return fmt.Errorf("chaos: hostile submit: %w", err)
		}
	}
	return nil
}

// nextHostile draws one hostile envelope from the mix. The weights lean on
// repeated/replayed traffic — the realistic flood shape, and the one the
// failure-caching hot path is built to absorb.
func (a *Adversary) nextHostile() (*block.Envelope, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch p := a.rng.Float64(); {
	case p < 0.40:
		if env := a.replayLocked(); env != nil {
			a.stats.Replay++
			return env, nil
		}
		fallthrough // nothing captured yet: fall back to the badsig corpus
	case p < 0.65:
		env, err := a.fromPoolLocked(&a.badsig, a.newBadSigLocked)
		if err == nil {
			a.stats.BadSig++
		}
		return env, err
	case p < 0.90:
		env, err := a.fromPoolLocked(&a.garbage, a.newGarbageLocked)
		if err == nil {
			a.stats.Garbage++
		}
		return env, err
	default:
		env, err := a.fromPoolLocked(&a.forged, a.newForgedLocked)
		if err == nil {
			a.stats.Forged++
		}
		return env, err
	}
}

// replayLocked picks a captured honest envelope, nil when none exists yet.
// It must be called with a.mu held.
func (a *Adversary) replayLocked() *block.Envelope {
	if len(a.captured) == 0 {
		return nil
	}
	return a.captured[a.rng.Intn(len(a.captured))]
}

// fromPoolLocked returns a pooled envelope, lazily filling the pool with
// gen up to PoolSize before reusing entries round-robin via the rng. It
// must be called with a.mu held.
func (a *Adversary) fromPoolLocked(pool *[]*block.Envelope, gen func() (*block.Envelope, error)) (*block.Envelope, error) {
	if len(*pool) < a.opts.PoolSize {
		env, err := gen()
		if err != nil {
			return nil, err
		}
		*pool = append(*pool, env)
		return env, nil
	}
	return (*pool)[a.rng.Intn(len(*pool))], nil
}

// newBadSigLocked builds a self-endorsed envelope whose client signature is
// corrupted: the creator certificate parses, so rejection lands on the
// signature verification itself.
func (a *Adversary) newBadSigLocked() (*block.Envelope, error) {
	env, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator:          a.id,
		Chaincode:        "smallbank",
		Channel:          a.opts.Channel,
		RWSet:            a.hostileRWSetLocked(),
		Endorsers:        []*identity.Identity{a.id},
		CorruptClientSig: true,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: badsig envelope: %w", err)
	}
	return env, nil
}

// newGarbageLocked builds an envelope whose payload bytes cannot decode: the
// closed-format parser must reject it (BadPayload) without panicking.
func (a *Adversary) newGarbageLocked() (*block.Envelope, error) {
	payload := make([]byte, 32+a.rng.Intn(224))
	a.rng.Read(payload) // bmaclint:allow errdiscard (math/rand Read never fails)
	sig := make([]byte, 70)
	a.rng.Read(sig) // bmaclint:allow errdiscard (math/rand Read never fails)
	return &block.Envelope{PayloadBytes: payload, Signature: sig}, nil
}

// newForgedLocked builds a structurally valid envelope endorsed only by the
// adversary's self-issued identity: every signature verifies, but the
// endorsement policy has never heard of org Mallory.
func (a *Adversary) newForgedLocked() (*block.Envelope, error) {
	env, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator:   a.id,
		Chaincode: "smallbank",
		Channel:   a.opts.Channel,
		RWSet:     a.hostileRWSetLocked(),
		Endorsers: []*identity.Identity{a.id},
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: forged envelope: %w", err)
	}
	return env, nil
}

// hostileRWSetLocked targets hot low-numbered smallbank accounts at the
// genesis version — the stale-read shape of a double-spend attempt. It
// must be called with a.mu held.
func (a *Adversary) hostileRWSetLocked() block.RWSet {
	key := fmt.Sprintf("checking_%d", a.rng.Intn(4))
	return block.RWSet{
		Reads:  []block.KVRead{{Key: key, Version: block.Version{}}},
		Writes: []block.KVWrite{{Key: key, Value: []byte("0")}},
	}
}
