// Package client implements the Caliper-like workload driver of the
// paper's evaluation (§4.1): it creates random transactions for a chosen
// benchmark, gathers endorsements from endorser peers, assembles signed
// envelopes and submits them to the ordering service, then collects
// block-level statistics from the peers.
package client

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"strconv"
	"sync"

	"bmac/internal/block"
	"bmac/internal/chaincode"
	"bmac/internal/endorser"
	"bmac/internal/identity"
	"bmac/internal/statedb"
)

// Workload generates chaincode invocations.
type Workload interface {
	// Chaincode returns the chaincode name invoked.
	Chaincode() string
	// Next returns the next function and arguments.
	Next(rng *mrand.Rand) (fn string, args []string)
	// Setup returns the bootstrap invocations that populate initial state
	// (executed against every peer's store before the run).
	Setup() [](struct {
		Fn   string
		Args []string
	})
}

type invocation = struct {
	Fn   string
	Args []string
}

// SmallbankWorkload drives the smallbank benchmark over `accounts`
// accounts with the standard operation mix.
//
// Skew dials in hot-account contention: 0 (or <= 1) picks accounts
// uniformly, while values > 1 draw them from a Zipf distribution with that
// exponent, concentrating traffic on low-numbered accounts. Higher skew
// means more read/write overlap between in-flight transactions — the
// conflict-rate axis of the pipeline experiments.
type SmallbankWorkload struct {
	Accounts int
	Skew     float64
}

var _ Workload = SmallbankWorkload{}

// accountPicker returns an account sampler, uniform or Zipf-skewed. The
// workload value is stateless (determinism lives in the caller's rng), so
// the Zipf state is rebuilt per invocation and shared by all draws of one
// transaction.
func (w SmallbankWorkload) accountPicker(rng *mrand.Rand) func() int {
	if w.Skew <= 1 {
		return func() int { return rng.Intn(w.Accounts) }
	}
	z := mrand.NewZipf(rng, w.Skew, 1, uint64(w.Accounts-1))
	return func() int { return int(z.Uint64()) }
}

// Chaincode implements Workload.
func (SmallbankWorkload) Chaincode() string { return "smallbank" }

// Setup implements Workload.
func (w SmallbankWorkload) Setup() []invocation {
	out := make([]invocation, 0, w.Accounts)
	for i := 0; i < w.Accounts; i++ {
		out = append(out, invocation{
			Fn:   "create_account",
			Args: []string{strconv.Itoa(i), "10000", "10000"},
		})
	}
	return out
}

// Next implements Workload.
func (w SmallbankWorkload) Next(rng *mrand.Rand) (string, []string) {
	pick := w.accountPicker(rng)
	a := strconv.Itoa(pick())
	b := strconv.Itoa(pick())
	amt := strconv.Itoa(1 + rng.Intn(100))
	switch rng.Intn(5) {
	case 0:
		return "transact_savings", []string{a, amt}
	case 1:
		return "deposit_checking", []string{a, amt}
	case 2:
		return "send_payment", []string{a, b, amt}
	case 3:
		return "write_check", []string{a, amt}
	default:
		return "amalgamate", []string{a, b}
	}
}

// DRMWorkload drives the drm benchmark over `assets` registered assets.
type DRMWorkload struct {
	Assets int
}

var _ Workload = DRMWorkload{}

// Chaincode implements Workload.
func (DRMWorkload) Chaincode() string { return "drm" }

// Setup implements Workload.
func (w DRMWorkload) Setup() []invocation {
	out := make([]invocation, 0, w.Assets)
	for i := 0; i < w.Assets; i++ {
		out = append(out, invocation{
			Fn:   "register",
			Args: []string{strconv.Itoa(i), "owner" + strconv.Itoa(i)},
		})
	}
	return out
}

// Next implements Workload.
func (w DRMWorkload) Next(rng *mrand.Rand) (string, []string) {
	id := strconv.Itoa(rng.Intn(w.Assets))
	switch rng.Intn(3) {
	case 0:
		return "transfer", []string{id, "owner" + strconv.Itoa(rng.Intn(100))}
	case 1:
		return "license", []string{id, "lic" + strconv.Itoa(rng.Intn(100))}
	default:
		return "query", []string{id}
	}
}

// SplitPayWorkload drives the split-payment smallbank variant: each payment
// splits to Recipients accounts, giving 1+Recipients reads and writes
// (Figure 12c's rw knob).
type SplitPayWorkload struct {
	Accounts   int
	Recipients int
}

var _ Workload = SplitPayWorkload{}

// Chaincode implements Workload.
func (SplitPayWorkload) Chaincode() string { return "splitpay" }

// Setup implements Workload.
func (w SplitPayWorkload) Setup() []invocation {
	out := make([]invocation, 0, w.Accounts)
	for i := 0; i < w.Accounts; i++ {
		out = append(out, invocation{
			Fn:   "create_account",
			Args: []string{strconv.Itoa(i), "1000000", "0"},
		})
	}
	return out
}

// Next implements Workload.
func (w SplitPayWorkload) Next(rng *mrand.Rand) (string, []string) {
	from := rng.Intn(w.Accounts)
	args := []string{strconv.Itoa(from), strconv.Itoa(10 * w.Recipients)}
	for len(args)-2 < w.Recipients {
		to := rng.Intn(w.Accounts)
		if to != from {
			args = append(args, strconv.Itoa(to))
		}
	}
	return "split_payment", args
}

// Submitter receives assembled envelopes (the ordering service).
type Submitter interface {
	Submit(*block.Envelope) error
}

// Driver is one Caliper client: it owns an identity and sends each proposal
// to the endorser peers one after another (see gatherEndorsements).
type Driver struct {
	id        *identity.Identity
	endorsers []*endorser.Endorser
	submitter Submitter
	workload  Workload
	channel   string
	rng       *mrand.Rand
	endorsing sync.Locker // held around each round of endorsements; nil: none

	submitted int
}

// NewDriver creates a driver. seed makes the generated workload
// deterministic.
func NewDriver(id *identity.Identity, endorsers []*endorser.Endorser,
	submitter Submitter, workload Workload, channel string, seed int64) *Driver {
	return &Driver{
		id:        id,
		endorsers: endorsers,
		submitter: submitter,
		workload:  workload,
		channel:   channel,
		rng:       mrand.New(mrand.NewSource(seed)),
	}
}

// EndorseUnder makes the driver hold l while it gathers a proposal's
// endorsements, and only then, so that whoever applies blocks to the
// endorsers' stores under l's write side never lands one between two of
// them. It must be called before the driver submits.
func (d *Driver) EndorseUnder(l sync.Locker) { d.endorsing = l }

// Bootstrap applies the workload's setup invocations directly to every
// endorser store (and any extra stores, e.g. the validator peers') at
// version (0,0) — the genesis state.
func Bootstrap(w Workload, reg *chaincode.Registry, stores ...statedb.KVS) error {
	cc, err := reg.Get(w.Chaincode())
	if err != nil {
		return err
	}
	for _, inv := range w.Setup() {
		for _, store := range stores {
			stub := chaincode.NewStub(store)
			if err := cc.Invoke(stub, inv.Fn, inv.Args); err != nil {
				return fmt.Errorf("bootstrap %s.%s: %w", w.Chaincode(), inv.Fn, err)
			}
			store.WriteBatch(stub.RWSet().Writes, block.Version{})
		}
	}
	return nil
}

// BootstrapHardware mirrors Bootstrap into a hardware KVS so the BMac
// peer's in-hardware database starts from the same genesis state.
func BootstrapHardware(w Workload, reg *chaincode.Registry, ref statedb.KVS, hw *statedb.HardwareKVS) error {
	for k, v := range ref.Snapshot() {
		if err := hw.Write(k, v.Value, v.Version); err != nil {
			return fmt.Errorf("bootstrap hardware kvs: %w", err)
		}
	}
	return nil
}

// SubmitOne generates, endorses, assembles and submits one transaction.
func (d *Driver) SubmitOne() error {
	_, err := d.SubmitTx()
	return err
}

// SubmitTx generates, endorses, assembles and submits one transaction and
// returns its transaction ID, so open-loop load drivers can match the
// submission against the block it later commits in (per-tx end-to-end
// latency). Endorsement gathering races with block commits updating the
// endorsers' world state (as in a live Fabric network); when the endorsers
// disagree on the read set, the client retries the proposal, as a real
// Fabric client SDK does.
func (d *Driver) SubmitTx() (string, error) {
	fn, args := d.workload.Next(d.rng)
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return "", fmt.Errorf("nonce: %w", err)
	}
	prop := &endorser.Proposal{
		Chaincode: d.workload.Chaincode(),
		Function:  fn,
		Args:      args,
		Nonce:     nonce,
		Creator:   d.id.Cert,
	}
	const maxAttempts = 5
	var (
		prpBytes     []byte
		endorsements []block.Endorsement
	)
	for attempt := 1; ; attempt++ {
		var err error
		prpBytes, endorsements, err = d.gatherEndorsements(prop)
		if err == nil {
			break
		}
		if attempt == maxAttempts || !errors.Is(err, errEndorserMismatch) {
			return "", fmt.Errorf("endorse %s.%s: %w", prop.Chaincode, fn, err)
		}
	}
	env, err := block.NewEnvelopeFromResponses(block.AssembleSpec{
		Creator:   d.id,
		Chaincode: prop.Chaincode,
		Channel:   d.channel,
		Nonce:     nonce,
		PRPBytes:  prpBytes,
		Endorsers: endorsements,
	})
	if err != nil {
		return "", err
	}
	if err := d.submitter.Submit(env); err != nil {
		return "", err
	}
	d.submitted++
	return block.ComputeTxID(nonce, d.id.Cert), nil
}

// errEndorserMismatch reports divergent proposal responses (a block landed
// between two endorsements); retryable.
var errEndorserMismatch = errors.New("client: endorsers disagree")

// gatherEndorsements sends the proposal to every endorser in turn and
// checks the responses agree. The calls are sequential on purpose: calling
// the endorsers concurrently made the submit side faster, and the orderer,
// which cuts a block whenever it is idle, turned that into smaller blocks.
// On the benchmark's e2e_smallbank (2 CPUs, 4 runs) saturated blocks shrank
// from ≈ 11 to 2.2 transactions, CPU per transaction rose ≈ 30 % and
// throughput fell in 3 of the 4. A fan-out waits for the orderer to cut on
// downstream readiness.
func (d *Driver) gatherEndorsements(prop *endorser.Proposal) ([]byte, []block.Endorsement, error) {
	if d.endorsing != nil {
		d.endorsing.Lock()
		defer d.endorsing.Unlock()
	}
	var prpBytes []byte
	endorsements := make([]block.Endorsement, 0, len(d.endorsers))
	for _, e := range d.endorsers {
		resp, err := e.Process(prop)
		if err != nil {
			return nil, nil, err
		}
		if prpBytes == nil {
			prpBytes = resp.PRPBytes
		} else if string(prpBytes) != string(resp.PRPBytes) {
			return nil, nil, errEndorserMismatch
		}
		endorsements = append(endorsements, resp.Endorsement)
	}
	return prpBytes, endorsements, nil
}

// Run submits n transactions.
func (d *Driver) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := d.SubmitOne(); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	return nil
}

// Submitted reports the number of successfully submitted transactions.
func (d *Driver) Submitted() int { return d.submitted }

// ApplyBlock applies a validated block's write sets to a store — the
// committer role every peer (including endorsers) plays after validation.
// Flags select which transactions commit.
func ApplyBlock(store statedb.KVS, b *block.Block, flags []byte) error {
	var writes []block.KVWrite
	for i := range b.Envelopes {
		if i >= len(flags) || block.ValidationCode(flags[i]) != block.Valid {
			continue
		}
		v, err := block.NewTxView(b.Envelopes[i].PayloadBytes)
		if err != nil {
			return err
		}
		writes = v.AppendWrites(writes[:0])
		store.WriteBatch(writes, block.Version{BlockNum: b.Header.Number, TxNum: uint64(i)})
	}
	return nil
}
