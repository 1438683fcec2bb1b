package policy

import (
	"errors"
	"testing"
	"testing/quick"

	"bmac/internal/identity"
)

// mustParse is the in-package equivalent of policytest.MustParse (which
// cannot be imported here without a cycle).
func mustParse(src string) *Policy {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// evaluate reads p's compiled circuit over rf.
func evaluate(p *Policy, rf *RegisterFile) bool { return Compile(p).Evaluate(rf) }

// sequential evaluates an expression tree one node after another, with no
// code in common with the circuit: Fabric's sequential walk (paper §4.3),
// kept as the circuit's reference.
func sequential(e Expr, rf *RegisterFile) bool {
	switch e := e.(type) {
	case OrgRef:
		return rf.regs[e.Org]&(1<<(e.Role-1)) != 0
	case And:
		for _, c := range e.Children {
			if !sequential(c, rf) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range e.Children {
			if sequential(c, rf) {
				return true
			}
		}
		return false
	}
	panic("unknown expression")
}

func rfWith(orgs ...uint8) *RegisterFile {
	var rf RegisterFile
	for _, o := range orgs {
		rf.Set(o, identity.RolePeer)
	}
	return &rf
}

func TestParseSimpleAnd(t *testing.T) {
	p, err := Parse("Org1 & Org2")
	if err != nil {
		t.Fatal(err)
	}
	if !evaluate(p, rfWith(1, 2)) {
		t.Error("both orgs should satisfy")
	}
	if evaluate(p, rfWith(1)) {
		t.Error("one org should not satisfy AND")
	}
	if got := p.MaxEndorsements(); got != 2 {
		t.Errorf("MaxEndorsements = %d, want 2", got)
	}
}

func TestParseOutOfForms(t *testing.T) {
	for _, src := range []string{"2-outof-3", "2of3", "2-outof-3 orgs"} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if want := "(Org1 & Org2) | (Org1 & Org3) | (Org2 & Org3)"; p.Expr.String() != want {
			t.Errorf("Parse(%q) = %q, want %q", src, p.Expr.String(), want)
		}
	}
}

func TestOutOfSemantics(t *testing.T) {
	p := mustParse("2of3")
	tests := []struct {
		orgs []uint8
		want bool
	}{
		{nil, false},
		{[]uint8{1}, false},
		{[]uint8{1, 2}, true},
		{[]uint8{2, 3}, true},
		{[]uint8{1, 3}, true},
		{[]uint8{1, 2, 3}, true},
		{[]uint8{4, 5}, false},
	}
	for _, tt := range tests {
		if got := evaluate(p, rfWith(tt.orgs...)); got != tt.want {
			t.Errorf("2of3 with orgs %v = %v, want %v", tt.orgs, got, tt.want)
		}
	}
}

func TestOneOfOne(t *testing.T) {
	p := mustParse("1of1")
	if !evaluate(p, rfWith(1)) || evaluate(p, rfWith(2)) {
		t.Error("1of1 semantics wrong")
	}
	if p.MaxEndorsements() != 1 {
		t.Errorf("MaxEndorsements = %d", p.MaxEndorsements())
	}
}

func TestComplexPaperPolicy(t *testing.T) {
	// The "almost but not exactly 2of4" policy from Section 4.3.
	src := "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | (Org3 & Org4)"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Org1 & Org3 is the one pair missing from the policy.
	if evaluate(p, rfWith(1, 3)) {
		t.Error("Org1&Org3 must NOT satisfy the complex policy")
	}
	for _, pair := range [][]uint8{{1, 2}, {1, 4}, {2, 3}, {2, 4}, {3, 4}} {
		if !evaluate(p, rfWith(pair...)) {
			t.Errorf("pair %v must satisfy", pair)
		}
	}
	if p.MaxEndorsements() != 4 {
		t.Errorf("MaxEndorsements = %d, want 4", p.MaxEndorsements())
	}
}

func TestRoleQualifiedRefs(t *testing.T) {
	p, err := Parse("Org1.Admin & Org2.Peer")
	if err != nil {
		t.Fatal(err)
	}
	var rf RegisterFile
	rf.Set(1, identity.RoleAdmin)
	rf.Set(2, identity.RolePeer)
	if !evaluate(p, &rf) {
		t.Error("role-qualified refs should match")
	}
	rf.Clear()
	rf.Set(1, identity.RolePeer) // wrong role
	rf.Set(2, identity.RolePeer)
	if evaluate(p, &rf) {
		t.Error("peer endorsement must not satisfy an Admin requirement")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "Org1 &", "& Org1", "(Org1", "Org1)", "Orgx", "0of3", "3of2",
		"Org1 Org2", "bogus", "Org1.king",
	} {
		if _, err := Parse(src); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) err = %v, want ErrParse", src, err)
		}
	}
}

func TestGateCounts(t *testing.T) {
	// "2-outof-3 orgs" = three 2-input ANDs and one 3-input OR (paper §3.3).
	p := mustParse("2of3")
	g := Compile(p).Gates()
	if g.AndGates != 3 || g.AndInputs != 6 {
		t.Errorf("AND gates = %d/%d inputs, want 3/6", g.AndGates, g.AndInputs)
	}
	if g.OrGates != 1 || g.OrInputs != 3 {
		t.Errorf("OR gates = %d/%d inputs, want 1/3", g.OrGates, g.OrInputs)
	}
	if g.Inputs != 6 {
		t.Errorf("leaf inputs = %d, want 6", g.Inputs)
	}
}

func TestCircuitMatchesSequential(t *testing.T) {
	policies := []string{
		"1of1", "2of2", "3of3", "2of3", "2of4", "3of4", "4of4",
		"(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | (Org3 & Org4)",
	}
	for _, src := range policies {
		p := mustParse(src)
		c := Compile(p)
		// Exhaustively compare on all subsets of orgs 1..4.
		for mask := 0; mask < 16; mask++ {
			var orgs []uint8
			for b := 0; b < 4; b++ {
				if mask&(1<<b) != 0 {
					orgs = append(orgs, uint8(b+1))
				}
			}
			rf := rfWith(orgs...)
			if c.Evaluate(rf) != sequential(p.Expr, rf) {
				t.Errorf("policy %q mask %04b: circuit != sequential", src, mask)
			}
		}
	}
}

func TestCanStillSatisfy(t *testing.T) {
	c := Compile(mustParse("3of3"))
	var rf RegisterFile
	// Org1's endorsement failed (never set); Org2, Org3 remain.
	remaining := []identity.EncodedID{
		identity.Encode(2, identity.RolePeer, 0),
		identity.Encode(3, identity.RolePeer, 0),
	}
	if c.CanStillSatisfy(&rf, remaining) {
		t.Error("3of3 with Org1 failed can never satisfy")
	}

	c2 := Compile(mustParse("2of3"))
	if !c2.CanStillSatisfy(&rf, remaining) {
		t.Error("2of3 with Org2,Org3 remaining can still satisfy")
	}
}

// TestCanStillSatisfyIsOptimisticEvaluate holds CanStillSatisfy to its
// definition: Evaluate over a copy of the register file with every
// remaining endorser's bit set — over random register files and remaining
// lists of any encoded id, roles no register holds included — and checks
// that it allocates nothing.
func TestCanStillSatisfyIsOptimisticEvaluate(t *testing.T) {
	var circuits []*Circuit
	for _, src := range []string{"1of1", "2of3", "3of3", "Org1 & (Org2 | (Org3 & Org4))", "Org1.admin | Org2.client & Org3"} {
		circuits = append(circuits, Compile(mustParse(src)))
	}
	f := func(ci uint8, set, remaining []uint16) bool {
		c := circuits[int(ci)%len(circuits)]
		var rf RegisterFile
		for _, id := range set {
			rf.SetID(identity.EncodedID(id % 0x800)) // orgs 0..7
		}
		left := make([]identity.EncodedID, len(remaining))
		for i, id := range remaining {
			left[i] = identity.EncodedID(id % 0x800)
		}
		opt := rf
		for _, id := range left {
			opt.SetID(id)
		}
		return c.CanStillSatisfy(&rf, left) == c.Evaluate(&opt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	var rf RegisterFile
	left := []identity.EncodedID{identity.Encode(2, identity.RolePeer, 0), identity.Encode(3, identity.RolePeer, 0)}
	if n := testing.AllocsPerRun(100, func() { circuits[1].CanStillSatisfy(&rf, left) }); n != 0 {
		t.Errorf("CanStillSatisfy: %v allocs per call", n)
	}
}

func TestCanStillSatisfyDoesNotMutate(t *testing.T) {
	c := Compile(mustParse("2of2"))
	var rf RegisterFile
	rf.Set(1, identity.RolePeer)
	c.CanStillSatisfy(&rf, []identity.EncodedID{identity.Encode(2, identity.RolePeer, 0)})
	if rf.Get(2, identity.RolePeer) {
		t.Error("CanStillSatisfy mutated the register file")
	}
	if c.Evaluate(&rf) {
		t.Error("policy must not be satisfied with only Org1")
	}
}

func TestRegisterFileClear(t *testing.T) {
	var rf RegisterFile
	rf.Set(3, identity.RolePeer)
	rf.SetID(identity.Encode(4, identity.RoleAdmin, 2))
	if !rf.Get(3, identity.RolePeer) || !rf.Get(4, identity.RoleAdmin) {
		t.Fatal("set/get broken")
	}
	rf.Clear()
	if rf.Get(3, identity.RolePeer) || rf.Get(4, identity.RoleAdmin) {
		t.Error("clear did not reset registers")
	}
}

// TestOutOfEquivalentToThreshold property-checks the expansion: k-of-m is
// satisfied exactly when >= k of Org1..Orgm endorsed.
func TestOutOfEquivalentToThreshold(t *testing.T) {
	f := func(kRaw, mRaw, maskRaw uint8) bool {
		m := int(mRaw%5) + 1 // 1..5
		k := int(kRaw)%m + 1 // 1..m
		mask := int(maskRaw) & (1<<m - 1)
		p := expandOutOf(k, m)
		var rf RegisterFile
		count := 0
		for b := 0; b < m; b++ {
			if mask&(1<<b) != 0 {
				rf.Set(uint8(b+1), identity.RolePeer)
				count++
			}
		}
		return p.eval(&rf, nil) == (count >= k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCircuitEval(b *testing.B) {
	c := Compile(mustParse("2of4"))
	rf := rfWith(2, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Evaluate(rf)
	}
}
