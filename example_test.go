package bmac_test

import (
	"fmt"
	"log"
	"os"
	"time"

	"bmac"
)

// ExampleSimulateArchitecture sizes a BMac architecture with the
// paper-calibrated timing simulator and the Table-1 resource model.
func ExampleSimulateArchitecture() {
	res, err := bmac.SimulateArchitecture(8, 2, bmac.SimWorkload{
		Policy:    "2of3",
		BlockSize: 150,
		Reads:     2,
		Writes:    2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arch %s: %d engines, fits U250: %v\n", res.Arch, res.EngineCount, res.FitsU250)
	fmt.Printf("short-circuit skipped %d of %d endorsements\n",
		res.EndsSkipped, res.EndsVerified+res.EndsSkipped)
	// Output:
	// arch 8x2: 25 engines, fits U250: true
	// short-circuit skipped 150 of 450 endorsements
}

// ExampleParseConfig loads a BMac YAML configuration.
func ExampleParseConfig() {
	cfg, err := bmac.ParseConfig([]byte(`
channel: ch1
orgs:
  - name: Org1
    endorsers: 1
    clients: 1
    orderers: 1
  - name: Org2
    endorsers: 1
chaincodes:
  - name: smallbank
    policy: "2-outof-2 orgs"
architecture:
  tx_validators: 8
  vscc_engines: 2
`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d orgs, %s policy, %dx%d architecture\n",
		len(cfg.Orgs), cfg.Chaincodes[0].Policy, cfg.Arch.TxValidators, cfg.Arch.VSCCEngines)
	// Output:
	// 2 orgs, 2-outof-2 orgs policy, 8x2 architecture
}

// ExampleNewTestbed runs a minimal network end to end.
func ExampleNewTestbed() {
	dir, err := os.MkdirTemp("", "bmac-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	tb, err := bmac.NewTestbed(bmac.DefaultConfig(), dir)
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	w := bmac.SmallbankWorkload{Accounts: 10}
	if err := tb.Bootstrap(w); err != nil {
		log.Fatal(err)
	}
	driver, err := tb.NewClient(w, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := driver.Run(5); err != nil {
		log.Fatal(err)
	}
	// How many blocks the five transactions become depends on the load (the
	// orderer cuts a block whenever it is idle), so wait by transactions.
	outcomes, err := tb.AwaitTxs(5, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	match := true
	for _, o := range outcomes {
		match = match && o.Match
	}
	fmt.Printf("5 txs committed, sw/hw match on every block: %v\n", match)
	// Output:
	// 5 txs committed, sw/hw match on every block: true
}
