package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"bmac/internal/bmacproto"
	"bmac/internal/chaincode"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/endorser"
	"bmac/internal/identity"
	"bmac/internal/orderer"
	"bmac/internal/peer"
	"bmac/internal/raft"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
)

// Stack is the part of a network that every harness wires the same way:
// the consortium's identities, one endorser per declared endorsing peer, a
// raft ordering service whose orderer follows its leader and,
// optionally, a BMac peer fed over the protocol. Run and the root
// package's testbed both build theirs with Build and add their own
// validating peers and delivery on top.
type Stack struct {
	Network   *identity.Network
	Registry  *chaincode.Registry
	Endorsers []*endorser.Endorser
	Raft      *raft.Cluster
	Orderer   *orderer.Orderer
	// BMacPeer and Sender are nil unless StackOptions.BMac is set.
	BMacPeer *peer.BMacPeer
	Sender   *bmacproto.Sender
}

// StackOptions are what the callers of Build wire differently.
type StackOptions struct {
	RaftNodes    int           // raft cluster size, at least 1
	BatchTimeout time.Duration // how long the orderer waits behind a stuck batch
	// BMac builds a BMac peer under dir/bmac_peer and registers its
	// protocol sender's identities from the network.
	BMac bool
}

// Build wires a stack from cfg. On error, whatever was already built is
// closed.
func Build(cfg *config.Config, o StackOptions, dir string) (_ *Stack, err error) {
	s := &Stack{Registry: chaincode.NewRegistry(chaincode.Smallbank{}, chaincode.DRM{}, chaincode.SplitPay{})}
	defer func() {
		if err != nil {
			s.Close() // bmaclint:allow errdiscard (error path: the build error is the one to report)
		}
	}()
	net, err := cfg.BuildNetwork()
	if err != nil {
		return nil, err
	}
	s.Network = net
	for _, org := range cfg.Orgs {
		for i := 0; i < org.Endorsers; i++ {
			id, err := net.LookupByName(fmt.Sprintf("peer%d.%s", i, org.Name))
			if err != nil {
				return nil, err
			}
			s.Endorsers = append(s.Endorsers, endorser.New(id, statedb.NewStore(), s.Registry))
		}
	}
	if len(s.Endorsers) == 0 {
		return nil, errors.New("cluster: configuration declares no endorser peers")
	}
	ordID, err := net.LookupByName("orderer0." + cfg.Orgs[0].Name)
	if err != nil {
		return nil, fmt.Errorf("cluster: first org needs an orderer: %w", err)
	}
	s.Raft = raft.NewCluster(o.RaftNodes, 20*time.Millisecond)
	leader := s.Raft.WaitForLeader(5 * time.Second)
	if leader == nil {
		return nil, errors.New("cluster: raft leader election timed out")
	}
	s.Orderer = orderer.New(orderer.Config{
		BatchSize:    cfg.Arch.MaxBlockTxs,
		BatchTimeout: o.BatchTimeout,
		Channel:      cfg.Channel,
	}, ordID, leader)
	registerOrderer(cfg.TelemetryRegistry(), s.Orderer)
	if !o.BMac {
		return s, nil
	}
	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		return nil, err
	}
	if s.BMacPeer, err = peer.NewBMacPeer(coreCfg, cfg.Arch.DBCapacity, filepath.Join(dir, "bmac_peer")); err != nil {
		return nil, err
	}
	s.Sender = bmacproto.NewSender(identity.NewCache(), bmacproto.NewMemLink(s.BMacPeer.Receiver))
	if err := s.Sender.RegisterNetwork(net); err != nil {
		return nil, err
	}
	return s, nil
}

// DurableOptions maps the configuration's durability section onto a
// durable peer's options. Every harness that opens a software peer from a
// Config goes through it, so no durability key is dropped on the way.
func DurableOptions(d config.DurabilitySpec) peer.DurableOptions {
	return peer.DurableOptions{
		CheckpointEvery: d.CheckpointEvery,
		KeepCheckpoints: d.KeepCheckpoints,
		SegmentBytes:    d.SegmentBytes,
		Prune:           d.Prune,
		SyncEachBlock:   d.SyncEachBlock,
	}
}

// registerOrderer exports the orderer's block, transaction and cut counts
// as scrape-time reads of Stats and Cuts.
func registerOrderer(reg *telemetry.Registry, o *orderer.Orderer) {
	reg.GaugeFunc("orderer_blocks_total", func() int64 { b, _ := o.Stats(); return int64(b) })
	reg.GaugeFunc("orderer_txs_total", func() int64 { _, t := o.Stats(); return int64(t) })
	for r := orderer.CutSize; r < orderer.CutReasons; r++ {
		reg.GaugeFunc(telemetry.Name("orderer_cuts_total", "reason", r.String()), func() int64 {
			size, idle, timeout := o.Cuts()
			return int64([orderer.CutReasons]int{size, idle, timeout}[r])
		})
	}
}

// Bootstrap seeds a workload's genesis state into every endorser store and
// the given validating peers' stores, and mirrors the first of those into
// the BMac peer's hardware database.
func (s *Stack) Bootstrap(w client.Workload, stores ...statedb.KVS) error {
	all := stores[:len(stores):len(stores)]
	for _, e := range s.Endorsers {
		all = append(all, e.Store())
	}
	if err := client.Bootstrap(w, s.Registry, all...); err != nil {
		return err
	}
	if s.BMacPeer == nil {
		return nil
	}
	return client.BootstrapHardware(w, s.Registry, stores[0], s.BMacPeer.Proc.DB())
}

// Close stops the orderer, the raft nodes and the BMac peer, and reports
// the first error: the fatal one that stopped the orderer, if any.
func (s *Stack) Close() error {
	var err error
	if s.Orderer != nil {
		err = s.Orderer.Stop()
	}
	if s.Raft != nil {
		s.Raft.Stop()
	}
	if s.BMacPeer != nil {
		if cerr := s.BMacPeer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
