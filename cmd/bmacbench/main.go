// Command bmacbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	bmacbench                 # run every experiment
//	bmacbench -exp fig11      # run one experiment
//	bmacbench -quick          # shrunk sweeps (smoke test)
//	bmacbench -rounds 5       # more measurement rounds per point
//	bmacbench -list           # list experiment ids
//	bmacbench -exp adversarial -quick -cpuprofile cpu.pprof
//	                          # + a CPU profile of the whole run (go tool pprof)
//
// The hotpath suite additionally supports a machine-readable record and a
// regression gate against a committed baseline:
//
//	bmacbench -exp hotpath -json BENCH_hotpath.json   # write the record
//	bmacbench -exp hotpath -quick -gate BENCH_hotpath.json
//	                          # fail (exit 1) if allocs/op regressed
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"bmac"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bmacbench:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		exp      = flag.String("exp", "", "experiment id (default: all)")
		rounds   = flag.Int("rounds", 3, "measurement rounds per data point")
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut  = flag.String("json", "", "hotpath only: write the benchmark record to this path")
		gatePath = flag.String("gate", "", "hotpath only: compare allocs/op against this baseline record and check its within-run ratios, exit 1 on regression")
		gateTol  = flag.Float64("gate-tolerance", 0.25, "relative allocs/op headroom for -gate")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return errors.Join(err, f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}

	if *list {
		for _, name := range bmac.ExperimentNames() {
			fmt.Printf("%-10s %s\n", name, bmac.ExperimentTitle(name))
		}
		return nil
	}

	names := bmac.ExperimentNames()
	if *exp != "" {
		names = strings.Split(*exp, ",")
	}
	opts := bmac.ExperimentOptions{Rounds: *rounds, Quick: *quick}
	for _, name := range names {
		start := time.Now()
		var (
			tbl *bmac.Table
			rec *bmac.HotpathRecord
			err error
		)
		if name == "hotpath" && (*jsonOut != "" || *gatePath != "") {
			// Measure once, then reuse the record for -json and -gate.
			tbl, rec, err = bmac.RunHotpathRecord(opts)
		} else {
			tbl, err = bmac.RunExperiment(name, opts)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("=== %s ===\n", bmac.ExperimentTitle(name))
		fmt.Println(tbl.String())
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		if rec != nil {
			if *jsonOut != "" {
				if err := rec.WriteJSON(*jsonOut); err != nil {
					return fmt.Errorf("write %s: %w", *jsonOut, err)
				}
				fmt.Printf("wrote %s\n", *jsonOut)
			}
			if *gatePath != "" {
				baseline, err := bmac.LoadHotpathRecord(*gatePath)
				if err != nil {
					return err
				}
				if err := rec.Gate(baseline, *gateTol); err != nil {
					return err
				}
				fmt.Printf("gate: allocs/op within %.0f%% of %s, verification-engine, hash-lane, BMac-sender and signer ratios within limits\n", *gateTol*100, *gatePath)
				if !rec.Lanes {
					fmt.Println("gate: ecdsa_verify_batch / ecdsa_verify_batch_scalar not applicable: no 8-lane kernel on this CPU")
					fmt.Println("gate: ecdsa_sign / ecdsa_sign_ecdh not applicable: no 8-lane comb on this CPU")
				}
				if !rec.HashLanes {
					fmt.Println("gate: sha256_range_lanes / sha256_range not applicable: no 16-lane SHA-256 kernel on this CPU")
				}
			}
		}
	}
	return nil
}
