package experiments

import (
	"fmt"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/hwsim"
	"bmac/internal/identity"
	"bmac/internal/policy"
)

// Ablations regenerates the design-choice ablation benches, one row per
// BMac mechanism the paper argues for:
//
//  1. short-circuit endorsement evaluation on/off (ends_scheduler)
//  2. early abort of invalid transactions on/off (tx pipeline)
//  3. identity removal on/off (protocol bandwidth)
//  4. overlap of CPU ledger commit with hardware validation on/off
func Ablations(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	blockSize := 150
	if o.Quick {
		blockSize = 30
	}
	t := &Table{Header: []string{"ablation", "on", "off", "effect"}}

	// 1. Short-circuit, 2of3 policy (the paper's showcase).
	spec := BlockSpec{Txs: blockSize, Endorsements: 3, Reads: 2, Writes: 2}
	on, err := bmacTiming(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, "2of3", spec)
	if err != nil {
		return nil, err
	}
	pol2of3, err := policy.Parse("2of3")
	if err != nil {
		return nil, err
	}
	off := hwsim.Simulate(hwsim.Config{TxValidators: 8, VSCCEngines: 2, DisableShortCircuit: true},
		policy.Compile(pol2of3),
		hwsim.UniformTxProfile(spec.Txs, spec.Endorsements, spec.Reads, spec.Writes))
	t.AddRow("short-circuit (2of3 tps)",
		FormatTPS(on.Throughput(blockSize)),
		FormatTPS(off.Throughput(blockSize)),
		fmt.Sprintf("%.2fx", on.Throughput(blockSize)/off.Throughput(blockSize)))

	// 2. Early abort: workload where half the client signatures are bad.
	profiles := hwsim.UniformTxProfile(blockSize, 3, 2, 2)
	for i := range profiles {
		if i%2 == 1 {
			profiles[i].TxSigValid = false
		}
	}
	pol3of3, err := policy.Parse("3of3")
	if err != nil {
		return nil, err
	}
	circ := policy.Compile(pol3of3)
	abortOn := hwsim.Simulate(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, circ, profiles)
	// With early abort disabled every endorsement is still verified; model
	// by marking signatures valid but keeping the same workload size.
	allValid := hwsim.UniformTxProfile(blockSize, 3, 2, 2)
	abortOff := hwsim.Simulate(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, circ, allValid)
	t.AddRow("early abort (ends verified, 50% bad sigs)",
		fmt.Sprintf("%d", abortOn.EndsVerified),
		fmt.Sprintf("%d", abortOff.EndsVerified),
		fmt.Sprintf("-%d engine calls", abortOff.EndsVerified-abortOn.EndsVerified))

	// 3. Identity removal: protocol bytes with and without the
	// DataRemover.
	b, err := e.MakeBlock(BlockSpec{Txs: blockSize, Endorsements: 2, Reads: 2, Writes: 2})
	if err != nil {
		return nil, err
	}
	withRemoval := bmacproto.NewSender(identity.NewCache(), nil)
	if err := withRemoval.RegisterNetwork(e.Net); err != nil {
		return nil, err
	}
	_, statsOn, err := withRemoval.EncodeBlock(b)
	if err != nil {
		return nil, err
	}
	withoutRemoval := bmacproto.NewSender(identity.NewCache(), nil) // nothing registered: every certificate stays inline
	_, statsOff, err := withoutRemoval.EncodeBlock(b)
	if err != nil {
		return nil, err
	}
	t.AddRow("identity removal (block KB)",
		fmt.Sprintf("%.1f", float64(statsOn.Bytes)/1024),
		fmt.Sprintf("%.1f", float64(statsOff.Bytes)/1024),
		fmt.Sprintf("%.2fx smaller", float64(statsOff.Bytes)/float64(statsOn.Bytes)))

	// 4. Ledger-commit overlap: with overlap the peer's block period is
	// max(validate, commit); without it, the sum. Model ledger commit as
	// the measured software ledger stage (~ proportional to block bytes).
	hwT, err := bmacTiming(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, "2of2",
		BlockSpec{Txs: blockSize, Endorsements: 2, Reads: 2, Writes: 2})
	if err != nil {
		return nil, err
	}
	ledgerCommit := estimateLedgerCommit(len(block.Marshal(b)))
	overlapOn := max(hwT.BlockLatency(), ledgerCommit)
	overlapOff := hwT.BlockLatency() + ledgerCommit
	t.AddRow("ledger-commit overlap (block period)",
		ms(overlapOn), ms(overlapOff),
		fmt.Sprintf("%.2fx", float64(overlapOff)/float64(overlapOn)))
	return t, nil
}
