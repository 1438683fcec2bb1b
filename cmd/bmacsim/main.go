// Command bmacsim explores BMac architectures with the timing simulator
// and the FPGA resource model: given a policy and workload shape, it sweeps
// tx_validator counts and reports throughput, latency and utilization —
// the design-space exploration a deployment would run before picking an
// architecture (paper §3.3 "Adaptability" and §4.3).
//
// Usage:
//
//	bmacsim                               # default sweep, 2of2 policy
//	bmacsim -policy 3of3 -engines 3       # policy-specific architecture
//	bmacsim -block 500 -max 80            # large blocks, big FPGAs
package main

import (
	"flag"
	"fmt"
	"os"

	"bmac"
	"bmac/internal/policy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bmacsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		polSrc  = flag.String("policy", "2of2", "endorsement policy")
		engines = flag.Int("engines", 2, "ecdsa_engines per tx_vscc")
		blockSz = flag.Int("block", 250, "transactions per block")
		reads   = flag.Int("reads", 2, "db reads per tx")
		writes  = flag.Int("writes", 2, "db writes per tx")
		maxVal  = flag.Int("max", 32, "max tx_validators to sweep")
	)
	flag.Parse()

	pol, err := policy.Parse(*polSrc)
	if err != nil {
		return err
	}
	ends := pol.MaxEndorsements()
	w := bmac.SimWorkload{Policy: *polSrc, BlockSize: *blockSz, Reads: *reads, Writes: *writes}

	t := &bmac.Table{Header: []string{
		"arch", "tps", "block latency", "tx latency", "ends/tx", "LUT%", "FF%", "fits U250",
	}}
	for n := 2; n <= *maxVal; n *= 2 {
		r, err := bmac.SimulateArchitecture(n, *engines, w)
		if err != nil {
			return err
		}
		t.AddRow(
			r.Arch,
			bmac.FormatTPS(r.Throughput),
			r.BlockLatency.String(),
			r.TxLatency.String(),
			fmt.Sprintf("%.1f", float64(r.EndsVerified)/float64(*blockSz)),
			fmt.Sprintf("%.1f", r.LUTPct),
			fmt.Sprintf("%.1f", r.FFPct),
			fmt.Sprintf("%v", r.FitsU250),
		)
	}
	fmt.Printf("policy %q (%d endorsements), block size %d, %dr/%dw per tx\n\n",
		*polSrc, ends, *blockSz, *reads, *writes)
	fmt.Println(t.String())
	return nil
}
