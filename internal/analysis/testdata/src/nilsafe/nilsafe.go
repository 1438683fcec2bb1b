// Package nilsafe is an analyzer fixture for the nil-receiver contract:
// types whose doc declares them nil-safe ("A nil X is valid" prose or a
// bmaclint:nilsafe marker) must guard every exported pointer-receiver
// method.
package nilsafe

import "sync/atomic"

// Counter is a cumulative counter. A nil Counter is valid and drops all
// updates, so disabled telemetry costs nothing.
type Counter struct {
	v atomic.Uint64
}

// Add is guarded: the canonical first-statement nil check.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value delegates every receiver use to an already-guarded method, which
// the fixpoint accepts.
func (c *Counter) Value() uint64 {
	return c.load()
}

// load is unexported: only exported methods are required to guard, but
// this one does anyway so Value's delegation is accepted.
func (c *Counter) load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Inc is missing its guard.
func (c *Counter) Inc() { // want `exported method \(\*Counter\)\.Inc must begin with a nil-receiver guard`
	c.v.Add(1)
}

// Reset checks nil but not as the first statement, so a nil receiver
// already crashed by the time the guard runs.
func (c *Counter) Reset() { // want `exported method \(\*Counter\)\.Reset must begin with a nil-receiver guard`
	c.v.Store(0)
	if c == nil {
		return
	}
}

// Level is marked explicitly rather than through prose.
//
// bmaclint:nilsafe
type Level struct {
	v atomic.Int64
}

// Set uses an or-chain guard, which still counts: the nil test runs
// before any dereference.
func (g *Level) Set(v int64, enabled bool) {
	if g == nil || !enabled {
		return
	}
	g.v.Store(v)
}

// Read is missing its guard on a marker-annotated type.
func (g *Level) Read() int64 { // want `exported method \(\*Level\)\.Read must begin with a nil-receiver guard`
	return g.v.Load()
}

// Plain is not declared nil-safe anywhere, so its unguarded methods are
// fine — the contract is opt-in.
type Plain struct {
	n int
}

// Bump has no guard and needs none.
func (p *Plain) Bump() {
	p.n++
}

// ByValue methods cannot observe a nil receiver and are ignored even on
// nil-safe types.
//
// bmaclint:nilsafe
type ByValue struct {
	n int
}

// Get has a value receiver: exempt.
func (b ByValue) Get() int {
	return b.n
}

// Meter exercises the limits of delegation acceptance.
//
// bmaclint:nilsafe
type Meter struct {
	n int
}

// Observe delegates to record, which is unguarded, so acceptance does
// not propagate: delegation only launders the guard when the callee has
// one.
func (m *Meter) Observe(v int) { // want `exported method \(\*Meter\)\.Observe must begin with a nil-receiver guard`
	m.record(v)
}

// record is unexported, so its missing guard is not reported directly —
// but it breaks Observe's delegation chain above.
func (m *Meter) record(v int) {
	m.n += v
}

// Flush has an unnamed receiver: it cannot dereference it, exempt.
func (*Meter) Flush() {}

// Reset guards with the nil test second in the or-chain, which still
// runs before any dereference.
func (m *Meter) Reset(hard bool) {
	if !hard || m == nil {
		return
	}
	m.n = 0
}
