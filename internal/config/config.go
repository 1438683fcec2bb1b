// Package config loads the BMac YAML configuration file (paper §3.5): the
// network's organizations and node identities, the chaincode endorsement
// policies, and the hardware architecture parameters. From it, the package
// plays the role of the paper's generator script: it materializes the
// identity network, preloads identity caches, and compiles the endorsement
// policies into the circuits of the ends_policy_evaluator.
package config

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"time"

	"bmac/internal/core"
	"bmac/internal/fabcrypto"
	"bmac/internal/hwsim"
	"bmac/internal/identity"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/yamllite"
)

// ErrInvalid reports a semantically invalid configuration.
var ErrInvalid = errors.New("config: invalid configuration")

// OrgSpec declares one organization and its node counts.
type OrgSpec struct {
	Name      string
	Peers     int
	Endorsers int
	Clients   int
	Orderers  int
}

// ChaincodeSpec declares one installed chaincode and its endorsement policy.
type ChaincodeSpec struct {
	Name   string
	Policy string
}

// ArchSpec declares the hardware architecture parameters.
type ArchSpec struct {
	TxValidators int
	VSCCEngines  int
	DBCapacity   int
	MaxBlockTxs  int
}

// PipelineSpec declares the pipelined software peer's commit engine
// parameters (internal/pipeline; see PipelineConfig).
type PipelineSpec struct {
	// Workers is the vscc goroutine budget; 0 means GOMAXPROCS at engine
	// construction.
	Workers int
}

// StateDB backend names accepted by StateDBSpec.Backend.
const (
	BackendMemory = "memory" // single in-memory Store (default)
	BackendHybrid = "hybrid" // §5 hardware LRU in front of a host Store
)

// StateDBSpec selects and parameterizes the software validator's
// state-database backend (paper §5's database-scaling proposal).
type StateDBSpec struct {
	// Backend is memory (default) or hybrid.
	Backend string
	// Capacity is the hybrid backend's in-hardware entry budget; 0 means
	// the architecture's db_capacity (8192 in the paper's configuration).
	Capacity int
	// HostReadLatencyUS models the host/PCIe access cost, in microseconds,
	// paid by a hybrid cache-miss read; 0 disables the model.
	HostReadLatencyUS int
	// NoCountAccesses disables the backend's read/write access counters
	// (statedb.KVS.SetCountAccesses). Counting defaults to on — the
	// experiments report the counters — and load-driving cluster runs
	// turn it off because the per-access atomics are pure overhead there.
	NoCountAccesses bool
}

// DeliverySpec parameterizes the orderer's non-blocking block delivery
// service (internal/delivery).
type DeliverySpec struct {
	// Window is the number of recent blocks retained for per-peer
	// catch-up; it bounds every peer's backlog. 0 means the delivery
	// default (256).
	Window int
}

// DurabilitySpec parameterizes the software peers' crash-recovery story
// (internal/peer durable mode): the ledger fsync policy and the state
// checkpoint cadence that bounds how much ledger a restarted peer replays.
type DurabilitySpec struct {
	// CheckpointEvery writes a peer state checkpoint after every N
	// committed blocks; 0 disables periodic checkpoints (recovery then
	// replays the whole ledger on top of the genesis checkpoint).
	CheckpointEvery int
	// SyncEachBlock fsyncs the peer ledger after every block commit,
	// trading commit latency for zero-block-loss crash durability.
	SyncEachBlock bool
	// SegmentBytes is the ledger segment rotation budget in bytes; a
	// segment that reaches it is sealed (footer checksum) and a new one
	// started. 0 means the ledger default (64 MiB).
	SegmentBytes int64
	// KeepCheckpoints is how many checkpoint generations each peer
	// retains (see statedb.DefaultKeepCheckpoints for <= 0).
	KeepCheckpoints int
	// Prune removes ledger segments wholly covered by every retained
	// checkpoint generation after each checkpoint, bounding disk growth.
	// A pruned peer can no longer serve those blocks to others.
	Prune bool
}

// TelemetrySpec gates the observability plane (internal/telemetry). With
// Enabled false (the default) no registry exists, every instrument handle
// is nil, and instrumented hot paths pay one predicted branch — the same
// zero-cost-when-off contract as statedb.SetCountAccesses.
type TelemetrySpec struct {
	// Enabled turns the telemetry plane on. Setting addr or trace_file in
	// the YAML implies enabled unless it is explicitly set false.
	Enabled bool
	// Addr is the optional listen address for the live exposition HTTP
	// server (/metrics, /trace, /debug/pprof/*); empty means no server.
	Addr string
	// TraceFile is the optional path the cluster harness writes the
	// per-block lifecycle trace to, as JSONL; empty means no file.
	TraceFile string
}

// Config is the parsed BMac configuration.
type Config struct {
	Channel    string
	Orgs       []OrgSpec
	Chaincodes []ChaincodeSpec
	Arch       ArchSpec
	Pipeline   PipelineSpec
	StateDB    StateDBSpec
	Delivery   DeliverySpec
	Durability DurabilitySpec
	Telemetry  TelemetrySpec

	// caches memoizes the shared certificate cache, the registry and the
	// identity network behind a pointer, so copying a Config (the cluster
	// harness derives per-peer variants that way) shares the same
	// instances instead of copying lock state. Every validator/pipeline
	// configuration materialized from this Config — sequential,
	// pipelined, BMac cross-check — parses a certificate once per process;
	// each still verifies every signature it commits.
	caches *hotCaches
}

type hotCaches struct {
	certOnce sync.Once
	cert     *fabcrypto.CertCache
	regOnce  sync.Once
	reg      *telemetry.Registry
	netOnce  sync.Once
	net      *identity.Network
	netErr   error
}

func (c *Config) ensureCaches() *hotCaches {
	if c.caches == nil {
		c.caches = &hotCaches{}
	}
	return c.caches
}

// certCacheSize bounds the shared certificate cache: it holds the handful
// of identity certificates that recur in every transaction, whose parsing
// rivals the ECDSA math in allocations.
const certCacheSize = 4096

// CertCache returns the Config's shared parsed-certificate cache, creating
// it on first use.
func (c *Config) CertCache() *fabcrypto.CertCache {
	h := c.ensureCaches()
	h.certOnce.Do(func() { h.cert = fabcrypto.NewCertCache(certCacheSize) })
	return h.cert
}

// TelemetryRegistry returns the Config's shared metrics registry, creating
// it on first use; nil when the telemetry plane is disabled. On creation
// the process-wide certificate cache's counters are exported as
// scrape-time GaugeFunc read adapters, so enabling telemetry adds nothing
// to those hot paths.
func (c *Config) TelemetryRegistry() *telemetry.Registry {
	h := c.ensureCaches()
	h.regOnce.Do(func() {
		if !c.Telemetry.Enabled {
			return
		}
		reg := telemetry.NewRegistry()
		cert := c.CertCache()
		reg.GaugeFunc("fabcrypto_certcache_hits_total", func() int64 { h, _ := cert.Stats(); return h })
		reg.GaugeFunc("fabcrypto_certcache_misses_total", func() int64 { _, m := cert.Stats(); return m })
		// Which engine did the curve math (process-wide, like the tables).
		reg.GaugeFunc("fabcrypto_engine_table_verifies_total", func() int64 { return fabcrypto.KeyTableStats().TableVerifies })
		reg.GaugeFunc("fabcrypto_engine_stdlib_verifies_total", func() int64 { return fabcrypto.KeyTableStats().StdlibVerifies })
		reg.GaugeFunc("fabcrypto_engine_fallbacks_total", func() int64 { return fabcrypto.KeyTableStats().Fallbacks })
		reg.GaugeFunc("fabcrypto_engine_tables_built_total", func() int64 { return fabcrypto.KeyTableStats().TablesBuilt })
		reg.GaugeFunc("fabcrypto_engine_tables_evicted_total", func() int64 { return fabcrypto.KeyTableStats().TablesEvicted })
		reg.GaugeFunc("fabcrypto_engine_resident_bytes", func() int64 { return fabcrypto.KeyTableStats().ResidentBytes })
		h.reg = reg
	})
	return h.reg
}

// Default returns the paper's default experimental configuration: two orgs
// each with an endorser and a validator peer, smallbank with a 2-outof-2
// policy, and an 8x2 architecture supporting 256-transaction blocks and an
// 8192-entry database (§4.1).
func Default() *Config {
	return &Config{
		Channel: "ch1",
		Orgs: []OrgSpec{
			{Name: "Org1", Peers: 1, Endorsers: 1, Clients: 1, Orderers: 1},
			{Name: "Org2", Peers: 1, Endorsers: 1},
		},
		Chaincodes: []ChaincodeSpec{{Name: "smallbank", Policy: "2of2"}},
		Arch: ArchSpec{
			TxValidators: 8,
			VSCCEngines:  2,
			DBCapacity:   8192,
			MaxBlockTxs:  256,
		},
		caches: &hotCaches{},
	}
}

// Load reads and parses a configuration file.
func Load(path string) (*Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read config: %w", err)
	}
	return Parse(raw)
}

// Parse parses YAML configuration bytes. Every mapping — the root, each
// org, each chaincode, each section — is checked against the keys it
// accepts: an unknown key, or a known key whose value has the wrong type, is
// ErrInvalid naming it as section.key. A null value leaves the default.
func Parse(raw []byte) (*Config, error) {
	root, err := yamllite.Parse(raw)
	if err != nil {
		return nil, err
	}
	top, ok := root.(map[string]any)
	if !ok && root != nil {
		return nil, fmt.Errorf("%w: the document is not a mapping", ErrInvalid)
	}
	d := Default()
	cfg := &Config{Channel: d.Channel, Arch: d.Arch, caches: &hotCaches{}}
	var orgs, ccs []any
	var arch, pipe, sdb, del, dur, tel map[string]any
	if err := decode("", top, fields{
		"channel":      &cfg.Channel,
		"orgs":         &orgs,
		"chaincodes":   &ccs,
		"architecture": &arch,
		"pipeline":     &pipe,
		"statedb":      &sdb,
		"delivery":     &del,
		"durability":   &dur,
		"telemetry":    &tel,
	}); err != nil {
		return nil, err
	}

	for i, o := range orgs {
		section := fmt.Sprintf("orgs[%d]", i)
		spec := OrgSpec{Peers: 1}
		if err := decodeItem(section, o, fields{
			"name":      &spec.Name,
			"peers":     &spec.Peers,
			"endorsers": &spec.Endorsers,
			"clients":   &spec.Clients,
			"orderers":  &spec.Orderers,
		}); err != nil {
			return nil, err
		}
		if spec.Name == "" {
			return nil, fmt.Errorf("%w: %s missing name", ErrInvalid, section)
		}
		cfg.Orgs = append(cfg.Orgs, spec)
	}

	for i, c := range ccs {
		section := fmt.Sprintf("chaincodes[%d]", i)
		var spec ChaincodeSpec
		if err := decodeItem(section, c, fields{"name": &spec.Name, "policy": &spec.Policy}); err != nil {
			return nil, err
		}
		switch {
		case spec.Name == "":
			return nil, fmt.Errorf("%w: %s missing name", ErrInvalid, section)
		case spec.Policy == "":
			return nil, fmt.Errorf("%w: chaincode %q missing policy", ErrInvalid, spec.Name)
		}
		if _, err := policy.Parse(spec.Policy); err != nil {
			return nil, fmt.Errorf("%w: chaincode %q policy: %v", ErrInvalid, spec.Name, err)
		}
		cfg.Chaincodes = append(cfg.Chaincodes, spec)
	}

	countAccesses := true
	sections := []struct {
		name string
		m    map[string]any
		f    fields
	}{
		{"architecture", arch, fields{
			"tx_validators": &cfg.Arch.TxValidators,
			"vscc_engines":  &cfg.Arch.VSCCEngines,
			"db_capacity":   &cfg.Arch.DBCapacity,
			"max_block_txs": &cfg.Arch.MaxBlockTxs,
		}},
		{"pipeline", pipe, fields{"workers": &cfg.Pipeline.Workers}},
		{"statedb", sdb, fields{
			"backend":              &cfg.StateDB.Backend,
			"capacity":             &cfg.StateDB.Capacity,
			"host_read_latency_us": &cfg.StateDB.HostReadLatencyUS,
			"count_accesses":       &countAccesses,
		}},
		{"delivery", del, fields{"window": &cfg.Delivery.Window}},
		{"durability", dur, fields{
			"checkpoint_every": &cfg.Durability.CheckpointEvery,
			"sync_each_block":  &cfg.Durability.SyncEachBlock,
			"segment_bytes":    &cfg.Durability.SegmentBytes,
			"keep_checkpoints": &cfg.Durability.KeepCheckpoints,
			"prune":            &cfg.Durability.Prune,
		}},
		{"telemetry", tel, fields{
			"enabled":    &cfg.Telemetry.Enabled,
			"addr":       &cfg.Telemetry.Addr,
			"trace_file": &cfg.Telemetry.TraceFile,
		}},
	}
	for _, sec := range sections {
		if err := decode(sec.name, sec.m, sec.f); err != nil {
			return nil, err
		}
	}
	cfg.StateDB.NoCountAccesses = !countAccesses
	// Asking for an endpoint or a trace file implies the plane is wanted;
	// only an explicit enabled: false overrides that.
	if tel["enabled"] == nil && (cfg.Telemetry.Addr != "" || cfg.Telemetry.TraceFile != "") {
		cfg.Telemetry.Enabled = true
	}
	return cfg, cfg.Validate()
}

// fields maps each key a mapping accepts to where its value is stored: a
// *string, *bool, *int, *int64, *[]any or *map[string]any.
type fields map[string]any

// decode stores every entry of m through its pointer in f, in key order. A
// key f does not name, or a value of another type than its pointer's, is
// ErrInvalid naming section.key; a null value is skipped.
func decode(section string, m map[string]any, f fields) error {
	for _, key := range slices.Sorted(maps.Keys(m)) {
		name := key
		if section != "" {
			name = section + "." + key
		}
		dst, known := f[key]
		if !known {
			return fmt.Errorf("%w: unknown key %s", ErrInvalid, name)
		}
		v := m[key]
		if v == nil {
			continue
		}
		var ok bool
		var want string
		switch d := dst.(type) {
		case *string:
			want = "a string"
			if s, is := v.(string); is {
				*d, ok = s, true
			}
		case *bool:
			want = "a boolean"
			if b, is := v.(bool); is {
				*d, ok = b, true
			}
		case *int:
			want = "an integer"
			if n, is := v.(int64); is {
				*d, ok = int(n), true
			}
		case *int64:
			want = "an integer"
			if n, is := v.(int64); is {
				*d, ok = n, true
			}
		case *[]any:
			want = "a sequence"
			if seq, is := v.([]any); is {
				*d, ok = seq, true
			}
		case *map[string]any:
			want = "a mapping"
			if sub, is := v.(map[string]any); is {
				*d, ok = sub, true
			}
		}
		if !ok {
			return fmt.Errorf("%w: %s is %v, want %s", ErrInvalid, name, v, want)
		}
	}
	return nil
}

// decodeItem decodes one sequence item, which must be a mapping.
func decodeItem(section string, item any, f fields) error {
	m, ok := item.(map[string]any)
	if !ok {
		return fmt.Errorf("%w: %s is %v, want a mapping", ErrInvalid, section, item)
	}
	return decode(section, m, f)
}

// Validate performs semantic checks.
func (c *Config) Validate() error {
	if len(c.Orgs) == 0 {
		return fmt.Errorf("%w: no organizations", ErrInvalid)
	}
	if len(c.Orgs) > 255 {
		return fmt.Errorf("%w: %d orgs exceed the 8-bit org id space", ErrInvalid, len(c.Orgs))
	}
	const perRole = 16 // an encoded ID's 4-bit node sequence number
	seen := make(map[string]bool, len(c.Orgs))
	for _, o := range c.Orgs {
		switch {
		case seen[o.Name]:
			return fmt.Errorf("%w: org %q declared twice", ErrInvalid, o.Name)
		case o.Orderers < 0 || o.Endorsers < 0 || o.Peers < 0 || o.Clients < 0:
			return fmt.Errorf("%w: org %q has a negative node count", ErrInvalid, o.Name)
		case o.Orderers > perRole || o.Endorsers+o.Peers > perRole || o.Clients > perRole:
			return fmt.Errorf("%w: org %q declares more than %d orderers, peers or clients", ErrInvalid, o.Name, perRole)
		}
		seen[o.Name] = true
	}
	if len(c.Chaincodes) == 0 {
		return fmt.Errorf("%w: no chaincodes", ErrInvalid)
	}
	if c.Arch.TxValidators < 1 || c.Arch.VSCCEngines < 1 {
		return fmt.Errorf("%w: architecture %dx%d", ErrInvalid, c.Arch.TxValidators, c.Arch.VSCCEngines)
	}
	if !hwsim.Resources(c.Arch.TxValidators, c.Arch.VSCCEngines).FitsU250() {
		return fmt.Errorf("%w: architecture %dx%d does not fit the U250",
			ErrInvalid, c.Arch.TxValidators, c.Arch.VSCCEngines)
	}
	if c.Pipeline.Workers < 0 {
		return fmt.Errorf("%w: pipeline workers=%d must be >= 0", ErrInvalid, c.Pipeline.Workers)
	}
	switch c.StateDB.Backend {
	case "", BackendMemory, BackendHybrid:
	default:
		return fmt.Errorf("%w: statedb backend %q (valid: %s, %s)",
			ErrInvalid, c.StateDB.Backend, BackendMemory, BackendHybrid)
	}
	if c.StateDB.Capacity < 0 || c.StateDB.HostReadLatencyUS < 0 {
		return fmt.Errorf("%w: statedb capacity=%d host_read_latency_us=%d must be >= 0",
			ErrInvalid, c.StateDB.Capacity, c.StateDB.HostReadLatencyUS)
	}
	if c.Delivery.Window < 0 {
		return fmt.Errorf("%w: delivery window=%d must be >= 0", ErrInvalid, c.Delivery.Window)
	}
	if c.Durability.CheckpointEvery < 0 {
		return fmt.Errorf("%w: durability checkpoint_every=%d must be >= 0",
			ErrInvalid, c.Durability.CheckpointEvery)
	}
	if c.Durability.SegmentBytes < 0 || c.Durability.KeepCheckpoints < 0 {
		return fmt.Errorf("%w: durability segment_bytes=%d keep_checkpoints=%d must be >= 0",
			ErrInvalid, c.Durability.SegmentBytes, c.Durability.KeepCheckpoints)
	}
	if c.Durability.Prune && c.Durability.CheckpointEvery == 0 {
		return fmt.Errorf("%w: durability prune needs checkpoint_every > 0 (nothing ever covers a segment)",
			ErrInvalid)
	}
	return nil
}

// NewKVS materializes the configured state-database backend for a software
// peer. Every call returns a fresh, empty database with the configured
// access-counting mode applied.
func (c *Config) NewKVS() (statedb.KVS, error) {
	var kvs statedb.KVS
	switch c.StateDB.Backend {
	case "", BackendMemory:
		kvs = statedb.NewStore()
	case BackendHybrid:
		capacity := c.StateDB.Capacity
		if capacity == 0 {
			capacity = c.Arch.DBCapacity
		}
		h := statedb.NewHybridKVS(capacity, statedb.NewStore())
		h.SetHostReadLatency(time.Duration(c.StateDB.HostReadLatencyUS) * time.Microsecond)
		kvs = h
	default:
		return nil, fmt.Errorf("%w: statedb backend %q", ErrInvalid, c.StateDB.Backend)
	}
	if c.StateDB.NoCountAccesses {
		kvs.SetCountAccesses(false)
	}
	return kvs, nil
}

// Policies compiles the sequential (software) policy table.
func (c *Config) Policies() (map[string]*policy.Policy, error) {
	out := make(map[string]*policy.Policy, len(c.Chaincodes))
	for _, cc := range c.Chaincodes {
		p, err := policy.Parse(cc.Policy)
		if err != nil {
			return nil, err
		}
		out[cc.Name] = p
	}
	return out, nil
}

// Circuits compiles the hardware policy circuits — the generated
// ends_policy_evaluator modules, one per chaincode.
func (c *Config) Circuits() (map[string]*policy.Circuit, error) {
	pols, err := c.Policies()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*policy.Circuit, len(pols))
	for name, p := range pols {
		out[name] = policy.Compile(p)
	}
	return out, nil
}

// CoreConfig materializes the functional block processor configuration.
func (c *Config) CoreConfig() (core.Config, error) {
	circuits, err := c.Circuits()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		TxValidators: c.Arch.TxValidators,
		VSCCEngines:  c.Arch.VSCCEngines,
		Policies:     circuits,
	}, nil
}

// engineConfig is the one builder behind the two software-peer presets:
// everything an engine takes from the configuration but its worker count.
// path labels the engine's telemetry series.
func (c *Config) engineConfig(workers int, path string) (pipeline.Config, error) {
	pols, err := c.Policies()
	if err != nil {
		return pipeline.Config{}, err
	}
	net, err := c.BuildNetwork()
	if err != nil {
		return pipeline.Config{}, err
	}
	members, err := net.Members()
	if err != nil {
		return pipeline.Config{}, err
	}
	return pipeline.Config{
		Workers:   workers,
		Policies:  pols,
		CertCache: c.CertCache(),
		Members:   members,
		Metrics:   telemetry.NewValidatorMetrics(c.TelemetryRegistry(), path),
	}, nil
}

// ValidatorConfig is the paper's software validator preset: the engine with
// the given vscc worker (vCPU) count, labelled "sequential".
func (c *Config) ValidatorConfig(workers int) (pipeline.Config, error) {
	return c.engineConfig(workers, "sequential")
}

// PipelineConfig is the parallel preset: the same engine sized by the
// `pipeline` section, labelled "pipelined".
func (c *Config) PipelineConfig() (pipeline.Config, error) {
	return c.engineConfig(c.Pipeline.Workers, "pipelined")
}

// HWSimConfig materializes the timing simulator configuration.
func (c *Config) HWSimConfig() hwsim.Config {
	return hwsim.Config{
		TxValidators: c.Arch.TxValidators,
		VSCCEngines:  c.Arch.VSCCEngines,
	}
}

// consortiumSeed, followed by the channel name, seeds the network
// BuildNetwork derives.
const consortiumSeed = "bmac consortium/"

// BuildNetwork returns the identity network declared by the configuration:
// organizations in declared order, then per org its orderers, endorser
// peers, validator peers and clients. Its keys derive from a seed of the
// channel name, so every Config with the same channel and orgs declares the
// same consortium, byte for byte. It is built once per Config (and its
// copies) and shared.
func (c *Config) BuildNetwork() (*identity.Network, error) {
	h := c.ensureCaches()
	h.netOnce.Do(func() { h.net, h.netErr = c.buildNetwork() })
	return h.net, h.netErr
}

func (c *Config) buildNetwork() (*identity.Network, error) {
	n := identity.NewNetwork([]byte(consortiumSeed + c.Channel))
	for _, org := range c.Orgs {
		if _, err := n.AddOrg(org.Name); err != nil {
			return nil, err
		}
		for i := 0; i < org.Orderers; i++ {
			if _, err := n.NewIdentity(org.Name, identity.RoleOrderer); err != nil {
				return nil, err
			}
		}
		for i := 0; i < org.Endorsers+org.Peers; i++ {
			if _, err := n.NewIdentity(org.Name, identity.RolePeer); err != nil {
				return nil, err
			}
		}
		for i := 0; i < org.Clients; i++ {
			if _, err := n.NewIdentity(org.Name, identity.RoleClient); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}
