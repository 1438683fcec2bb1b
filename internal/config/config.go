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
	"os"
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
	"bmac/internal/validator"
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

// PipelineSpec declares the software parallel commit engine parameters
// (internal/pipeline).
type PipelineSpec struct {
	// Workers is the goroutine budget per parallel stage; 0 means
	// GOMAXPROCS at engine construction.
	Workers int
	// Depth is the number of blocks allowed in flight between pipeline
	// stages; 0 means the engine default (4).
	Depth int
	// Prefetch enables the async read-set warm-up stage: as soon as a
	// block is unmarshalled its read-set keys are read from the state
	// database, hiding a slow backend's miss latency under vscc.
	Prefetch bool
	// PrefetchWorkers bounds the warm-up reader pool; 0 means Workers.
	PrefetchWorkers int
}

// StateDB backend names accepted by StateDBSpec.Backend.
const (
	BackendMemory  = "memory"  // single in-memory Store (default)
	BackendHybrid  = "hybrid"  // §5 hardware LRU in front of a host Store
	BackendSharded = "sharded" // lock-striped ShardedStore
)

// CryptoSpec parameterizes the process-wide verification accelerators of
// the commit hot path.
type CryptoSpec struct {
	// SigCacheSize bounds the shared signature-verification cache
	// (fabcrypto.SigCache) in verdicts; 0 disables it. Every validation
	// path built from one Config shares one cache, so a signature is
	// ECDSA-verified once per process no matter how many peers see it.
	// The default covers the reuse distance — orderer check to the last
	// peer's check, a few blocks — not history: every live entry is
	// scanned by every garbage collection (see Default).
	SigCacheSize int
	// CertCacheSize bounds the shared parsed-certificate cache
	// (fabcrypto.CertCache) in certificates; 0 disables it. The same
	// handful of identity certs recurs in every transaction, and parsing
	// them rivals the ECDSA math in allocations.
	CertCacheSize int
}

// HotpathSpec parameterizes the remaining hot-path optimizations.
type HotpathSpec struct {
	// ParseCacheSize bounds the parse-once envelope interning table
	// (validator.ParseCache) in envelopes; 0 disables it. Shared across
	// every validation path built from one Config. Sized like
	// SigCacheSize: to the blocks in flight between the peers of one
	// process.
	ParseCacheSize int
	// NoMarshalPool disables the process-wide pooled marshal buffers
	// (wire.SetBufferPooling); pooling is on by default and the knob
	// exists for differential testing and benchmarking.
	NoMarshalPool bool
}

// StateDBSpec selects and parameterizes the parallel peer's state-database
// backend (paper §5's database-scaling proposal).
type StateDBSpec struct {
	// Backend is one of memory (default), hybrid or sharded.
	Backend string
	// Capacity is the hybrid backend's in-hardware entry budget; 0 means
	// the architecture's db_capacity (8192 in the paper's configuration).
	Capacity int
	// Shards is the sharded backend's lock-stripe count; 0 means the
	// statedb default (16).
	Shards int
	// HostReadLatencyUS models the host/PCIe access cost, in microseconds,
	// paid by a hybrid cache-miss read; 0 disables the model.
	HostReadLatencyUS int
	// NoCountAccesses disables the backend's read/write access counters
	// (statedb.KVS.SetCountAccesses). Counting defaults to on — the
	// experiments report the counters — and load-driving cluster runs
	// turn it off because the per-access atomics are pure overhead there.
	NoCountAccesses bool
}

// Delivery policy names accepted by DeliverySpec.Policy.
const (
	PolicyDisconnect = "disconnect" // kill the pipe of a peer that overruns the window
	PolicyDrop       = "drop"       // skip the lost blocks, count them, keep the peer
	PolicyWait       = "wait"       // lossless: block publication until the peer catches up
)

// DeliverySpec parameterizes the orderer's non-blocking block delivery
// service (internal/delivery).
type DeliverySpec struct {
	// Window is the number of recent blocks retained for per-peer
	// catch-up; it bounds every peer's backlog. 0 means the delivery
	// default (256).
	Window int
	// Policy is the overrun policy for peers that fall off the window:
	// disconnect (default), drop, or wait. Wait makes delivery lossless
	// by blocking publication until the peer catches up — deliberate
	// backpressure that lets the slowest such peer throttle block
	// creation, so it suits in-process consumers rather than network
	// peers.
	Policy string
	// MaxRedials bounds reconnect attempts after a peer send error; 0
	// means the delivery default (3).
	MaxRedials int
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
	// retains; <= 0 means statedb.DefaultKeepCheckpoints (2: the newest
	// for fast-sync plus one corruption fallback).
	KeepCheckpoints int
	// Prune removes ledger segments wholly covered by every retained
	// checkpoint generation after each checkpoint, bounding disk growth.
	// A pruned peer can no longer serve those blocks to others.
	Prune bool
	// NoFastSync makes recovery replay from the oldest retained
	// checkpoint instead of the newest — the fastsync experiment's
	// full-replay baseline. The YAML key is "fastsync" (default true);
	// the field is inverted so the zero value means fast-sync on.
	NoFastSync bool
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
	Crypto     CryptoSpec
	Hotpath    HotpathSpec
	Telemetry  TelemetrySpec

	// caches memoizes the shared verification/parse caches behind a
	// pointer, so copying a Config (the cluster harness derives per-peer
	// variants that way) shares the same instances instead of copying
	// lock state. Every validator/pipeline configuration materialized
	// from this Config — sequential, pipelined, BMac cross-check — uses
	// the same caches, which is what makes a signature or envelope cost
	// its decode exactly once per process.
	caches *hotCaches
}

type hotCaches struct {
	sigOnce   sync.Once
	sig       *fabcrypto.SigCache
	certOnce  sync.Once
	cert      *fabcrypto.CertCache
	parseOnce sync.Once
	parse     *validator.ParseCache
	regOnce   sync.Once
	reg       *telemetry.Registry
}

func (c *Config) ensureCaches() *hotCaches {
	if c.caches == nil {
		c.caches = &hotCaches{}
	}
	return c.caches
}

// SigCache returns the Config's shared signature-verification cache,
// creating it on first use; nil when crypto.sig_cache_size is 0.
func (c *Config) SigCache() *fabcrypto.SigCache {
	h := c.ensureCaches()
	h.sigOnce.Do(func() { h.sig = fabcrypto.NewSigCache(c.Crypto.SigCacheSize) })
	return h.sig
}

// CertCache returns the Config's shared parsed-certificate cache,
// creating it on first use; nil when crypto.cert_cache_size is 0.
func (c *Config) CertCache() *fabcrypto.CertCache {
	h := c.ensureCaches()
	h.certOnce.Do(func() { h.cert = fabcrypto.NewCertCache(c.Crypto.CertCacheSize) })
	return h.cert
}

// ParseCache returns the Config's shared parse-once interning table,
// creating it on first use; nil when hotpath.parse_cache_size is 0.
func (c *Config) ParseCache() *validator.ParseCache {
	h := c.ensureCaches()
	h.parseOnce.Do(func() { h.parse = validator.NewParseCache(c.Hotpath.ParseCacheSize) })
	return h.parse
}

// TelemetryRegistry returns the Config's shared metrics registry, creating
// it on first use; nil when the telemetry plane is disabled. On creation
// the process-wide cache counters (signature, certificate and parse-once
// caches) are exported as scrape-time GaugeFunc read adapters, so enabling
// telemetry adds nothing to those hot paths.
func (c *Config) TelemetryRegistry() *telemetry.Registry {
	h := c.ensureCaches()
	h.regOnce.Do(func() {
		if !c.Telemetry.Enabled {
			return
		}
		reg := telemetry.NewRegistry()
		sig, cert, parse := c.SigCache(), c.CertCache(), c.ParseCache()
		reg.GaugeFunc("fabcrypto_sigcache_hits_total", func() int64 { h, _, _ := sig.Stats(); return h })
		reg.GaugeFunc("fabcrypto_sigcache_misses_total", func() int64 { _, m, _ := sig.Stats(); return m })
		reg.GaugeFunc("fabcrypto_sigcache_evictions_total", func() int64 { _, _, e := sig.Stats(); return e })
		reg.GaugeFunc("fabcrypto_certcache_hits_total", func() int64 { h, _ := cert.Stats(); return h })
		reg.GaugeFunc("fabcrypto_certcache_misses_total", func() int64 { _, m := cert.Stats(); return m })
		// Which engine did the curve math (process-wide, like the tables).
		reg.GaugeFunc("fabcrypto_engine_table_verifies_total", func() int64 { return fabcrypto.KeyTableStats().TableVerifies })
		reg.GaugeFunc("fabcrypto_engine_stdlib_verifies_total", func() int64 { return fabcrypto.KeyTableStats().StdlibVerifies })
		reg.GaugeFunc("fabcrypto_engine_fallbacks_total", func() int64 { return fabcrypto.KeyTableStats().Fallbacks })
		reg.GaugeFunc("fabcrypto_engine_tables_built_total", func() int64 { return fabcrypto.KeyTableStats().TablesBuilt })
		reg.GaugeFunc("fabcrypto_engine_tables_evicted_total", func() int64 { return fabcrypto.KeyTableStats().TablesEvicted })
		reg.GaugeFunc("fabcrypto_engine_resident_bytes", func() int64 { return fabcrypto.KeyTableStats().ResidentBytes })
		reg.GaugeFunc("validator_parsecache_hits_total", func() int64 { h, _ := parse.Stats(); return h })
		reg.GaugeFunc("validator_parsecache_misses_total", func() int64 { _, m := parse.Stats(); return m })
		h.reg = reg
	})
	return h.reg
}

// Default returns the paper's default experimental configuration: two orgs
// each with an endorser and a validator peer, smallbank with a 2-outof-2
// policy, and an 8x2 architecture supporting 256-transaction blocks and an
// 8192-entry database (§4.1).
//
// The two verdict caches hold four full blocks: 1 024 parsed envelopes, and
// 4 096 signatures at up to four per transaction. A second peer in the
// same process reaches a block within that distance (the hit rates on the
// ruler's e2e workload are those of the 8 192 / 16 384 entries replaced,
// 0.46 and 0.60), and a peer that sees a chain once never hits at all — but
// every entry is live heap the collector marks each cycle, and on a host
// with idle CPUs a mark phase holds back timers and wake-ups for as long
// as it runs: at 8 192 and 16 384 entries the caches were half of the
// process's mark work, and the mark phases held about half of the paced
// transactions at or above the 95th percentile (ARCHITECTURE.md, "How
// large the verdict caches are").
func Default() *Config {
	const maxBlockTxs = 256
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
			MaxBlockTxs:  maxBlockTxs,
		},
		Crypto:  CryptoSpec{SigCacheSize: 4 * 4 * maxBlockTxs, CertCacheSize: 4096},
		Hotpath: HotpathSpec{ParseCacheSize: 4 * maxBlockTxs},
		caches:  &hotCaches{},
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

// Parse parses YAML configuration bytes.
func Parse(raw []byte) (*Config, error) {
	root, err := yamllite.Parse(raw)
	if err != nil {
		return nil, err
	}
	cfg := &Config{caches: &hotCaches{}}
	if s, ok := yamllite.GetString(root, "channel"); ok {
		cfg.Channel = s
	} else {
		cfg.Channel = "ch1"
	}

	orgs, ok := yamllite.GetSeq(root, "orgs")
	if !ok {
		return nil, fmt.Errorf("%w: missing orgs", ErrInvalid)
	}
	for i, o := range orgs {
		name, ok := yamllite.GetString(o, "name")
		if !ok {
			return nil, fmt.Errorf("%w: org %d missing name", ErrInvalid, i)
		}
		spec := OrgSpec{Name: name, Peers: 1}
		if v, ok := yamllite.GetInt(o, "peers"); ok {
			spec.Peers = int(v)
		}
		if v, ok := yamllite.GetInt(o, "endorsers"); ok {
			spec.Endorsers = int(v)
		}
		if v, ok := yamllite.GetInt(o, "clients"); ok {
			spec.Clients = int(v)
		}
		if v, ok := yamllite.GetInt(o, "orderers"); ok {
			spec.Orderers = int(v)
		}
		cfg.Orgs = append(cfg.Orgs, spec)
	}

	ccs, ok := yamllite.GetSeq(root, "chaincodes")
	if !ok {
		return nil, fmt.Errorf("%w: missing chaincodes", ErrInvalid)
	}
	for i, c := range ccs {
		name, ok := yamllite.GetString(c, "name")
		if !ok {
			return nil, fmt.Errorf("%w: chaincode %d missing name", ErrInvalid, i)
		}
		pol, ok := yamllite.GetString(c, "policy")
		if !ok {
			return nil, fmt.Errorf("%w: chaincode %q missing policy", ErrInvalid, name)
		}
		if _, err := policy.Parse(pol); err != nil {
			return nil, fmt.Errorf("%w: chaincode %q policy: %v", ErrInvalid, name, err)
		}
		cfg.Chaincodes = append(cfg.Chaincodes, ChaincodeSpec{Name: name, Policy: pol})
	}

	arch, ok := yamllite.GetMap(root, "architecture")
	if !ok {
		cfg.Arch = Default().Arch
	} else {
		cfg.Arch = ArchSpec{TxValidators: 8, VSCCEngines: 2, DBCapacity: 8192, MaxBlockTxs: 256}
		if v, ok := yamllite.GetInt(arch, "tx_validators"); ok {
			cfg.Arch.TxValidators = int(v)
		}
		if v, ok := yamllite.GetInt(arch, "vscc_engines"); ok {
			cfg.Arch.VSCCEngines = int(v)
		}
		if v, ok := yamllite.GetInt(arch, "db_capacity"); ok {
			cfg.Arch.DBCapacity = int(v)
		}
		if v, ok := yamllite.GetInt(arch, "max_block_txs"); ok {
			cfg.Arch.MaxBlockTxs = int(v)
		}
	}

	if pipe, ok := yamllite.GetMap(root, "pipeline"); ok {
		if v, ok := yamllite.GetInt(pipe, "workers"); ok {
			cfg.Pipeline.Workers = int(v)
		}
		if v, ok := yamllite.GetInt(pipe, "depth"); ok {
			cfg.Pipeline.Depth = int(v)
		}
		if v, ok := yamllite.GetBool(pipe, "prefetch"); ok {
			cfg.Pipeline.Prefetch = v
		}
		if v, ok := yamllite.GetInt(pipe, "prefetch_workers"); ok {
			cfg.Pipeline.PrefetchWorkers = int(v)
		}
	}

	if del, ok := yamllite.GetMap(root, "delivery"); ok {
		if v, ok := yamllite.GetInt(del, "window"); ok {
			cfg.Delivery.Window = int(v)
		}
		if v, ok := yamllite.GetString(del, "policy"); ok {
			cfg.Delivery.Policy = v
		}
		if v, ok := yamllite.GetInt(del, "max_redials"); ok {
			cfg.Delivery.MaxRedials = int(v)
		}
	}

	if dur, ok := yamllite.GetMap(root, "durability"); ok {
		if v, ok := yamllite.GetInt(dur, "checkpoint_every"); ok {
			cfg.Durability.CheckpointEvery = int(v)
		}
		if v, ok := yamllite.GetBool(dur, "sync_each_block"); ok {
			cfg.Durability.SyncEachBlock = v
		}
		if v, ok := yamllite.GetInt(dur, "segment_bytes"); ok {
			cfg.Durability.SegmentBytes = v
		}
		if v, ok := yamllite.GetInt(dur, "keep_checkpoints"); ok {
			cfg.Durability.KeepCheckpoints = int(v)
		}
		if v, ok := yamllite.GetBool(dur, "prune"); ok {
			cfg.Durability.Prune = v
		}
		if v, ok := yamllite.GetBool(dur, "fastsync"); ok {
			cfg.Durability.NoFastSync = !v
		}
	}

	if cr, ok := yamllite.GetMap(root, "crypto"); ok {
		if v, ok := yamllite.GetInt(cr, "sig_cache_size"); ok {
			cfg.Crypto.SigCacheSize = int(v)
		}
		if v, ok := yamllite.GetInt(cr, "cert_cache_size"); ok {
			cfg.Crypto.CertCacheSize = int(v)
		}
	}

	if hp, ok := yamllite.GetMap(root, "hotpath"); ok {
		if v, ok := yamllite.GetInt(hp, "parse_cache_size"); ok {
			cfg.Hotpath.ParseCacheSize = int(v)
		}
		if v, ok := yamllite.GetBool(hp, "marshal_pool"); ok {
			cfg.Hotpath.NoMarshalPool = !v
		}
	}

	if tel, ok := yamllite.GetMap(root, "telemetry"); ok {
		enabledSet := false
		if v, ok := yamllite.GetBool(tel, "enabled"); ok {
			cfg.Telemetry.Enabled = v
			enabledSet = true
		}
		if v, ok := yamllite.GetString(tel, "addr"); ok {
			cfg.Telemetry.Addr = v
		}
		if v, ok := yamllite.GetString(tel, "trace_file"); ok {
			cfg.Telemetry.TraceFile = v
		}
		// Asking for an endpoint or a trace file implies the plane is
		// wanted; only an explicit enabled: false overrides that.
		if !enabledSet && (cfg.Telemetry.Addr != "" || cfg.Telemetry.TraceFile != "") {
			cfg.Telemetry.Enabled = true
		}
	}

	if sdb, ok := yamllite.GetMap(root, "statedb"); ok {
		if v, ok := yamllite.GetString(sdb, "backend"); ok {
			cfg.StateDB.Backend = v
		}
		if v, ok := yamllite.GetInt(sdb, "capacity"); ok {
			cfg.StateDB.Capacity = int(v)
		}
		if v, ok := yamllite.GetInt(sdb, "shards"); ok {
			cfg.StateDB.Shards = int(v)
		}
		if v, ok := yamllite.GetInt(sdb, "host_read_latency_us"); ok {
			cfg.StateDB.HostReadLatencyUS = int(v)
		}
		if v, ok := yamllite.GetBool(sdb, "count_accesses"); ok {
			cfg.StateDB.NoCountAccesses = !v
		}
	}
	return cfg, cfg.Validate()
}

// Validate performs semantic checks.
func (c *Config) Validate() error {
	if len(c.Orgs) == 0 {
		return fmt.Errorf("%w: no organizations", ErrInvalid)
	}
	if len(c.Orgs) > 255 {
		return fmt.Errorf("%w: %d orgs exceed the 8-bit org id space", ErrInvalid, len(c.Orgs))
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
	if c.Pipeline.Workers < 0 || c.Pipeline.Depth < 0 || c.Pipeline.PrefetchWorkers < 0 {
		return fmt.Errorf("%w: pipeline workers=%d depth=%d prefetch_workers=%d must be >= 0",
			ErrInvalid, c.Pipeline.Workers, c.Pipeline.Depth, c.Pipeline.PrefetchWorkers)
	}
	switch c.StateDB.Backend {
	case "", BackendMemory, BackendHybrid, BackendSharded:
	default:
		return fmt.Errorf("%w: statedb backend %q (valid: %s, %s, %s)",
			ErrInvalid, c.StateDB.Backend, BackendMemory, BackendHybrid, BackendSharded)
	}
	if c.StateDB.Capacity < 0 || c.StateDB.Shards < 0 || c.StateDB.HostReadLatencyUS < 0 {
		return fmt.Errorf("%w: statedb capacity=%d shards=%d host_read_latency_us=%d must be >= 0",
			ErrInvalid, c.StateDB.Capacity, c.StateDB.Shards, c.StateDB.HostReadLatencyUS)
	}
	switch c.Delivery.Policy {
	case "", PolicyDisconnect, PolicyDrop, PolicyWait:
	default:
		return fmt.Errorf("%w: delivery policy %q (valid: %s, %s, %s)",
			ErrInvalid, c.Delivery.Policy, PolicyDisconnect, PolicyDrop, PolicyWait)
	}
	if c.Delivery.Window < 0 || c.Delivery.MaxRedials < 0 {
		return fmt.Errorf("%w: delivery window=%d max_redials=%d must be >= 0",
			ErrInvalid, c.Delivery.Window, c.Delivery.MaxRedials)
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
	if c.Crypto.SigCacheSize < 0 || c.Crypto.CertCacheSize < 0 {
		return fmt.Errorf("%w: crypto sig_cache_size=%d cert_cache_size=%d must be >= 0",
			ErrInvalid, c.Crypto.SigCacheSize, c.Crypto.CertCacheSize)
	}
	if c.Hotpath.ParseCacheSize < 0 {
		return fmt.Errorf("%w: hotpath parse_cache_size=%d must be >= 0",
			ErrInvalid, c.Hotpath.ParseCacheSize)
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
	case BackendSharded:
		kvs = statedb.NewShardedStore(c.StateDB.Shards)
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
// everything an engine takes from the configuration regardless of shape.
// path labels the engine's telemetry series.
func (c *Config) engineConfig(shape pipeline.Shape, workers int, path string) (pipeline.Config, error) {
	pols, err := c.Policies()
	if err != nil {
		return pipeline.Config{}, err
	}
	return pipeline.Config{
		Shape:      shape,
		Workers:    workers,
		Policies:   pols,
		SigCache:   c.SigCache(),
		CertCache:  c.CertCache(),
		ParseCache: c.ParseCache(),
		Metrics:    telemetry.NewValidatorMetrics(c.TelemetryRegistry(), path),
	}, nil
}

// ValidatorConfig is the paper's software validator preset: the engine in
// its Fabric v1.4 shape with the given vscc worker (vCPU) count.
func (c *Config) ValidatorConfig(workers int) (pipeline.Config, error) {
	return c.engineConfig(pipeline.Fabric14, workers, "sequential")
}

// PipelineConfig is the parallel preset: the engine in its default shape,
// sized by the `pipeline` knob.
func (c *Config) PipelineConfig() (pipeline.Config, error) {
	pc, err := c.engineConfig(pipeline.Scheduled, c.Pipeline.Workers, "pipelined")
	pc.Depth = c.Pipeline.Depth
	pc.Prefetch = c.Pipeline.Prefetch
	pc.PrefetchWorkers = c.Pipeline.PrefetchWorkers
	return pc, err
}

// HWSimConfig materializes the timing simulator configuration.
func (c *Config) HWSimConfig() hwsim.Config {
	return hwsim.Config{
		TxValidators: c.Arch.TxValidators,
		VSCCEngines:  c.Arch.VSCCEngines,
	}
}

// BuildNetwork creates the identity network declared by the configuration:
// organizations in declared order, then per org its orderers, endorser
// peers, validator peers and clients.
func (c *Config) BuildNetwork() (*identity.Network, error) {
	n := identity.NewNetwork()
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
