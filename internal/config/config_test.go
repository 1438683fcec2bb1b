package config

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bmac/internal/identity"
	"bmac/internal/statedb"
)

const sampleYAML = `
channel: mychannel
orgs:
  - name: Org1
    peers: 1
    endorsers: 1
    clients: 1
    orderers: 1
  - name: Org2
    peers: 1
    endorsers: 1
chaincodes:
  - name: smallbank
    policy: "2of2"
  - name: drm
    policy: "Org1 & Org2"
architecture:
  tx_validators: 8
  vscc_engines: 2
  db_capacity: 8192
  max_block_txs: 256
pipeline:
  workers: 6
statedb:
  backend: hybrid
  capacity: 512
  host_read_latency_us: 40
delivery:
  window: 128
durability:
  checkpoint_every: 16
  sync_each_block: true
  segment_bytes: 1048576
  keep_checkpoints: 3
  prune: true
`

func TestParseSample(t *testing.T) {
	cfg, err := Parse([]byte(sampleYAML))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Channel != "mychannel" {
		t.Errorf("channel = %q", cfg.Channel)
	}
	if len(cfg.Orgs) != 2 || cfg.Orgs[0].Name != "Org1" || cfg.Orgs[0].Clients != 1 {
		t.Errorf("orgs = %+v", cfg.Orgs)
	}
	if len(cfg.Chaincodes) != 2 || cfg.Chaincodes[1].Policy != "Org1 & Org2" {
		t.Errorf("chaincodes = %+v", cfg.Chaincodes)
	}
	if cfg.Arch.TxValidators != 8 || cfg.Arch.DBCapacity != 8192 {
		t.Errorf("arch = %+v", cfg.Arch)
	}
	if cfg.Pipeline.Workers != 6 {
		t.Errorf("pipeline = %+v", cfg.Pipeline)
	}
	if cfg.StateDB.Backend != BackendHybrid || cfg.StateDB.Capacity != 512 ||
		cfg.StateDB.HostReadLatencyUS != 40 {
		t.Errorf("statedb = %+v", cfg.StateDB)
	}
	if cfg.Delivery.Window != 128 {
		t.Errorf("delivery = %+v", cfg.Delivery)
	}
	if cfg.Durability.CheckpointEvery != 16 || !cfg.Durability.SyncEachBlock {
		t.Errorf("durability = %+v", cfg.Durability)
	}
	if cfg.Durability.SegmentBytes != 1048576 || cfg.Durability.KeepCheckpoints != 3 ||
		!cfg.Durability.Prune {
		t.Errorf("durability segment/prune keys = %+v", cfg.Durability)
	}
}

func TestDurabilitySpecValidation(t *testing.T) {
	bad := Default()
	bad.Durability.CheckpointEvery = -3
	if err := bad.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative checkpoint cadence: err = %v, want ErrInvalid", err)
	}
	bad = Default()
	bad.Durability.SegmentBytes = -1
	if err := bad.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative segment_bytes: err = %v, want ErrInvalid", err)
	}
	bad = Default()
	bad.Durability.Prune = true // no checkpoint cadence: nothing ever covers a segment
	if err := bad.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("prune without checkpoints: err = %v, want ErrInvalid", err)
	}
	ok := Default()
	ok.Durability.Prune = true
	ok.Durability.CheckpointEvery = 4
	if err := ok.Validate(); err != nil {
		t.Errorf("prune with cadence rejected: %v", err)
	}
}

func TestDeliverySpecValidation(t *testing.T) {
	bad := Default()
	bad.Delivery.Window = -1
	if err := bad.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative delivery window: err = %v, want ErrInvalid", err)
	}
}

func TestNewKVSBackends(t *testing.T) {
	cfg := Default()
	if kvs, err := cfg.NewKVS(); err != nil {
		t.Fatal(err)
	} else if _, ok := kvs.(*statedb.Store); !ok {
		t.Errorf("default backend = %T, want *statedb.Store", kvs)
	}

	// Hybrid with capacity 0 inherits the architecture's db_capacity.
	cfg.StateDB = StateDBSpec{Backend: BackendHybrid, HostReadLatencyUS: 10}
	if kvs, err := cfg.NewKVS(); err != nil {
		t.Fatal(err)
	} else if h, ok := kvs.(*statedb.HybridKVS); !ok || h.Capacity() != cfg.Arch.DBCapacity {
		t.Errorf("hybrid backend = %T (capacity %v, want %d)", kvs, kvs, cfg.Arch.DBCapacity)
	}

	bad := Default()
	bad.StateDB.Backend = "leveldb"
	if err := bad.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown backend: err = %v, want ErrInvalid", err)
	}
	bad = Default()
	bad.StateDB.Capacity = -1
	if err := bad.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative capacity: err = %v, want ErrInvalid", err)
	}
}

func TestPipelineConfigDefaultsAndMaterialization(t *testing.T) {
	cfg := Default()
	if cfg.Pipeline.Workers != 0 {
		t.Errorf("default pipeline spec should be zero (engine chooses): %+v", cfg.Pipeline)
	}
	pc, err := cfg.PipelineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Policies) != len(cfg.Chaincodes) {
		t.Errorf("pipeline policies = %d, want %d", len(pc.Policies), len(cfg.Chaincodes))
	}

	bad := Default()
	bad.Pipeline.Workers = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative pipeline workers accepted")
	}
}

func TestLoadFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bmac.yaml")
	if err := os.WriteFile(path, []byte(sampleYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Channel != "mychannel" {
		t.Error("file load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.yaml")); err == nil {
		t.Error("missing file should error")
	}
}

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.CoreConfig(); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.ValidatorConfig(4); err != nil {
		t.Fatal(err)
	}
	hw := cfg.HWSimConfig()
	if hw.TxValidators != 8 {
		t.Errorf("hwsim validators = %d", hw.TxValidators)
	}
}

func TestInvalidConfigs(t *testing.T) {
	cases := []string{
		// no orgs
		"chaincodes:\n  - name: cc\n    policy: 1of1\n",
		// no chaincodes
		"orgs:\n  - name: Org1\n",
		// bad policy
		"orgs:\n  - name: Org1\nchaincodes:\n  - name: cc\n    policy: bogus\n",
		// chaincode without policy
		"orgs:\n  - name: Org1\nchaincodes:\n  - name: cc\n",
	}
	for i, src := range cases {
		if _, err := Parse([]byte(src)); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: err = %v, want ErrInvalid", i, err)
		}
	}
}

// TestParseRejectsUnknownKeysAndWrongTypes pins that no mapping of the file
// silently ignores what it does not understand: a misspelt or retired key
// and a value of the wrong type are each ErrInvalid naming section.key.
func TestParseRejectsUnknownKeysAndWrongTypes(t *testing.T) {
	const base = "orgs:\n  - name: Org1\nchaincodes:\n  - name: cc\n    policy: 1of1\n"
	cases := []struct {
		name, yaml, want string
	}{
		{"misspelt section", base + "pipelin:\n  workers: 6\n", "unknown key pipelin"},
		{"misspelt key", base + "pipeline:\n  workrs: 6\n", "unknown key pipeline.workrs"},
		{"retired pipeline.depth", base + "pipeline:\n  depth: 4\n", "unknown key pipeline.depth"},
		{"retired hotpath.marshal_pool", base + "hotpath:\n  marshal_pool: true\n", "unknown key hotpath"},
		{"retired crypto", base + "crypto:\n  sig_cache_size: 4096\n  cert_cache_size: 4096\n", "unknown key crypto"},
		{"retired hotpath", base + "hotpath:\n  parse_cache_size: 1024\n", "unknown key hotpath"},
		{"retired pipeline.prefetch", base + "pipeline:\n  prefetch: true\n", "unknown key pipeline.prefetch"},
		{"retired pipeline.prefetch_workers", base + "pipeline:\n  prefetch_workers: 4\n", "unknown key pipeline.prefetch_workers"},
		{"retired delivery.policy", base + "delivery:\n  policy: drop\n", "unknown key delivery.policy"},
		{"retired delivery.max_redials", base + "delivery:\n  max_redials: 5\n", "unknown key delivery.max_redials"},
		{"retired statedb.shards", base + "statedb:\n  shards: 16\n", "unknown key statedb.shards"},
		{"retired durability.fastsync", base + "durability:\n  fastsync: false\n", "unknown key durability.fastsync"},
		{"retired sharded backend", base + "statedb:\n  backend: sharded\n", `statedb backend "sharded"`},
		{"integer given a word", base + "pipeline:\n  workers: six\n", "pipeline.workers is six, want an integer"},
		{"boolean given a word", base + "telemetry:\n  enabled: maybe\n", "telemetry.enabled is maybe, want a boolean"},
		{"section given a scalar", base + "durability: 3\n", "durability is 3, want a mapping"},
		{"misspelt org key", "orgs:\n  - name: Org1\n    peer: 3\nchaincodes:\n  - name: cc\n    policy: 1of1\n", "unknown key orgs[0].peer"},
		{"misspelt chaincode key", "orgs:\n  - name: Org1\nchaincodes:\n  - name: cc\n    polcy: 1of1\n", "unknown key chaincodes[0].polcy"},
		{"org given a scalar", "orgs:\n  - Org1\nchaincodes:\n  - name: cc\n    policy: 1of1\n", "orgs[0] is Org1, want a mapping"},
	}
	if _, err := Parse([]byte(base)); err != nil {
		t.Fatalf("base config: %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.yaml))
			if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want ErrInvalid containing %q", err, c.want)
			}
		})
	}
}

func TestOversizedArchitectureRejected(t *testing.T) {
	cfg := Default()
	cfg.Arch.TxValidators = 100
	cfg.Arch.VSCCEngines = 4
	if err := cfg.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("err = %v, want ErrInvalid (does not fit U250)", err)
	}
}

func TestBuildNetwork(t *testing.T) {
	cfg, err := Parse([]byte(sampleYAML))
	if err != nil {
		t.Fatal(err)
	}
	n, err := cfg.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	// Org1: 1 orderer + 2 peers (endorser+validator) + 1 client = 4.
	// Org2: 2 peers = 2.
	if got := len(n.Identities()); got != 6 {
		t.Errorf("identities = %d, want 6", got)
	}
	if _, err := n.LookupByName("peer0.Org1"); err != nil {
		t.Errorf("peer0.Org1 missing: %v", err)
	}
	if _, err := n.LookupByName("orderer0.Org1"); err != nil {
		t.Errorf("orderer0.Org1 missing: %v", err)
	}
}

// TestConsortiumIsAFunctionOfTheConfig pins what lets a peer opened from a
// configuration know who may endorse: two fresh configurations declare one
// consortium, byte for byte, and the engine built from one resolves the
// members of the other. Another channel declares another consortium; one
// Config builds its network once.
func TestConsortiumIsAFunctionOfTheConfig(t *testing.T) {
	build := func(cfg *Config) *identity.Network {
		t.Helper()
		n, err := cfg.BuildNetwork()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cfg := Default()
	a, b := build(cfg), build(Default())
	if again := build(cfg); again != a {
		t.Error("a second BuildNetwork on one Config built another network")
	}
	other := Default()
	other.Channel = "ch2"
	c := build(other)
	ids, idsB, idsC := a.Identities(), b.Identities(), c.Identities()
	if len(ids) == 0 || len(idsB) != len(ids) || len(idsC) != len(ids) {
		t.Fatalf("identities: %d, %d, %d", len(ids), len(idsB), len(idsC))
	}
	vc, err := Default().ValidatorConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !bytes.Equal(id.Cert, idsB[i].Cert) || !id.PublicKey().Equal(idsB[i].PublicKey()) {
			t.Errorf("%s: two fresh configs issued different certificates or keys", id.Name)
		}
		if bytes.Equal(id.Cert, idsC[i].Cert) || id.PublicKey().Equal(idsC[i].PublicKey()) {
			t.Errorf("%s: another channel issued the same certificate or key", id.Name)
		}
		if got, ok := vc.Members.IDForCert(id.Cert); !ok || got != id.ID {
			t.Errorf("%s: a fresh config's engine resolves it to %v, %v", id.Name, got, ok)
		}
	}
}

// TestOrgDeclarationsValidated: Validate rejects every org declaration
// BuildNetwork cannot build, naming the org, and accepts the largest it can.
func TestOrgDeclarationsValidated(t *testing.T) {
	cases := []struct {
		name string
		edit func(*OrgSpec)
		ok   bool
	}{
		{"duplicate name", func(o *OrgSpec) { o.Name = "Org1" }, false},
		{"20 peers", func(o *OrgSpec) { o.Peers = 20 }, false},
		{"17 clients", func(o *OrgSpec) { o.Clients = 17 }, false},
		{"17 orderers", func(o *OrgSpec) { o.Orderers = 17 }, false},
		{"10 endorsers and 7 peers", func(o *OrgSpec) { o.Endorsers, o.Peers = 10, 7 }, false},
		{"-3 peers", func(o *OrgSpec) { o.Peers = -3 }, false},
		{"-1 endorsers", func(o *OrgSpec) { o.Endorsers = -1 }, false},
		{"16 of each role", func(o *OrgSpec) { o.Endorsers, o.Peers, o.Clients, o.Orderers = 6, 10, 16, 16 }, true},
	}
	for _, tc := range cases {
		cfg := Default()
		tc.edit(&cfg.Orgs[1])
		err := cfg.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			} else if _, err := cfg.BuildNetwork(); err != nil {
				t.Errorf("%s: valid, but BuildNetwork: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), `"`+cfg.Orgs[1].Name+`"`) {
			t.Errorf("%s: err = %v, want ErrInvalid naming org %q", tc.name, err, cfg.Orgs[1].Name)
		}
	}
}

func TestCircuitsCompiled(t *testing.T) {
	cfg, err := Parse([]byte(sampleYAML))
	if err != nil {
		t.Fatal(err)
	}
	circuits, err := cfg.Circuits()
	if err != nil {
		t.Fatal(err)
	}
	if len(circuits) != 2 {
		t.Fatalf("circuits = %d", len(circuits))
	}
	// The generated 2of2 evaluator: one 2-input AND.
	g := circuits["smallbank"].Gates()
	if g.AndGates != 1 || g.AndInputs != 2 {
		t.Errorf("smallbank gates = %+v", g)
	}
}

// TestParseSeedsCacheDefaults pins that a parsed file with no optional
// sections still gives its engines the consortium table every certificate
// resolves through, holding each identity the file declares.
func TestParseSeedsCacheDefaults(t *testing.T) {
	const base = "orgs:\n  - name: Org1\nchaincodes:\n  - name: cc\n    policy: 1of1\n"
	cfg, err := Parse([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	vc, err := cfg.ValidatorConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := cfg.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if vc.Members == nil {
		t.Fatal("omitted sections: no consortium table")
	}
	if got, want := vc.Members.Len(), len(net.Identities()); got == 0 || got != want {
		t.Errorf("omitted sections: the consortium table holds %d identities, want %d", got, want)
	}
}

// TestReadmeConfigParses extracts the YAML block the README shows under
// `bmacnet -config` and parses it, so the documented file cannot drift
// from what Parse accepts.
func TestReadmeConfigParses(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i := strings.Index(readme, "`bmacnet -config")
	if i < 0 {
		t.Fatal("README has no `bmacnet -config` paragraph")
	}
	_, rest, ok := strings.Cut(readme[i:], "```yaml\n")
	if !ok {
		t.Fatal("no yaml block after the `bmacnet -config` paragraph")
	}
	block, _, ok := strings.Cut(rest, "```")
	if !ok {
		t.Fatal("unterminated yaml block")
	}
	if _, err := Parse([]byte(block)); err != nil {
		t.Fatalf("README config: %v", err)
	}
}
