// Package policy implements chaincode endorsement policies: the boolean
// expressions over organizations that decide whether a transaction gathered
// enough valid endorsements ("Org1 & Org2", "2-outof-3 orgs", or arbitrary
// OR-of-AND forms).
//
// A policy has one evaluator, the Circuit: the hardware
// ends_policy_evaluator, a combinational circuit over a register file (one
// register per organization, one bit per role) that reads the policy output
// in a single step.
//
// Which endorsements are verified at all is decided by one ends_scheduler,
// Scheduler, whose two settings are the two systems the paper compares:
//
//   - Fabric's vscc (the zero Scheduler): every endorsement of a
//     transaction is signature-verified regardless of the policy, in one
//     round (Section 4.3: "Fabric always verifies all the endorsements of a
//     transaction, irrespective of the policy").
//
//   - BMac's tx_vscc (Width E, ShortCircuit): up to E endorsements per
//     round, and none once the circuit's output is decided — the
//     short-circuit evaluation that skips unnecessary verifications.
package policy

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"bmac/internal/identity"
)

// Expr is a node of an endorsement policy expression tree.
type Expr interface {
	// String renders the canonical textual form of the expression.
	String() string
	// eval reports whether the expression is satisfied by the set of
	// (org, role) endorsements marked valid in the register file, together
	// with those of extra.
	eval(rf *RegisterFile, extra []identity.EncodedID) bool
	// gates accumulates the AND/OR gate counts of the compiled circuit.
	gates(g *GateCount)
	// orgs accumulates the set of organizations referenced.
	orgs(set map[uint8]bool)
}

// OrgRef is a leaf: an endorsement by a specific organization (peer role,
// as in the paper's examples).
type OrgRef struct {
	Org  uint8
	Role identity.Role
}

// String implements Expr.
func (o OrgRef) String() string { return fmt.Sprintf("Org%d", o.Org) }

func (o OrgRef) eval(rf *RegisterFile, extra []identity.EncodedID) bool {
	ok := rf.Get(o.Org, o.Role)
	for _, id := range extra {
		ok = ok || id.Org() == o.Org && roleBit(id.Role())&roleBit(o.Role) != 0
	}
	return ok
}

func (o OrgRef) gates(g *GateCount) { g.Inputs++ }

func (o OrgRef) orgs(set map[uint8]bool) { set[o.Org] = true }

// And requires all children to be satisfied.
type And struct{ Children []Expr }

// String implements Expr.
func (a And) String() string { return joinExprs(a.Children, " & ") }

func (a And) eval(rf *RegisterFile, extra []identity.EncodedID) bool {
	// Deliberately no short-circuit: evaluate every child, then combine,
	// as a combinational circuit evaluates all its inputs in parallel.
	ok := true
	for _, c := range a.Children {
		if !c.eval(rf, extra) {
			ok = false
		}
	}
	return ok
}

func (a And) gates(g *GateCount) {
	if len(a.Children) > 1 {
		g.AndGates++
		g.AndInputs += len(a.Children)
	}
	for _, c := range a.Children {
		c.gates(g)
	}
}

func (a And) orgs(set map[uint8]bool) {
	for _, c := range a.Children {
		c.orgs(set)
	}
}

// Or requires at least one child to be satisfied.
type Or struct{ Children []Expr }

// String implements Expr.
func (o Or) String() string { return joinExprs(o.Children, " | ") }

func (o Or) eval(rf *RegisterFile, extra []identity.EncodedID) bool {
	ok := false
	for _, c := range o.Children {
		if c.eval(rf, extra) {
			ok = true
		}
	}
	return ok
}

func (o Or) gates(g *GateCount) {
	if len(o.Children) > 1 {
		g.OrGates++
		g.OrInputs += len(o.Children)
	}
	for _, c := range o.Children {
		c.gates(g)
	}
}

func (o Or) orgs(set map[uint8]bool) {
	for _, c := range o.Children {
		c.orgs(set)
	}
}

func joinExprs(children []Expr, sep string) string {
	parts := make([]string, len(children))
	for i, c := range children {
		s := c.String()
		if strings.ContainsAny(s, "&|") {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// GateCount tallies the combinational circuit footprint of a compiled
// policy; feeds the FPGA resource model in internal/hwsim.
type GateCount struct {
	AndGates  int
	AndInputs int
	OrGates   int
	OrInputs  int
	Inputs    int
}

// RegisterFile is the hardware register file of the ends_policy_evaluator:
// one register per organization, one bit per predefined role. It records
// which endorsements have verified successfully so far for the transaction
// currently in a tx_vscc instance.
type RegisterFile struct {
	regs [256]uint8 // index: org number; bit index: role
}

// Clear resets every register; called by tx_vscc when a new transaction starts.
func (rf *RegisterFile) Clear() { rf.regs = [256]uint8{} }

// Set records a valid endorsement from (org, role).
func (rf *RegisterFile) Set(org uint8, role identity.Role) {
	rf.regs[org] |= roleBit(role)
}

// roleBit is a role's bit in its organization's register; 0 for a role no
// register holds.
func roleBit(role identity.Role) uint8 { return 1 << (uint8(role) - 1) }

// SetID records a valid endorsement from an encoded identity.
func (rf *RegisterFile) SetID(id identity.EncodedID) {
	rf.Set(id.Org(), id.Role())
}

// Get reports whether a valid endorsement from (org, role) was recorded.
func (rf *RegisterFile) Get(org uint8, role identity.Role) bool {
	return rf.regs[org]&roleBit(role) != 0
}

// Policy is a parsed endorsement policy.
type Policy struct {
	Name string // textual source, e.g. "2of3"
	Expr Expr
}

// ErrParse reports a syntactically invalid policy string.
var ErrParse = errors.New("policy: parse error")

// Parse parses a policy expression. Grammar:
//
//	expr   := term ('|' term)*
//	term   := factor ('&' factor)*
//	factor := '(' expr ')' | ORG | OUTOF
//	ORG    := "Org" N [ "." ROLE ]
//	OUTOF  := N ("-outof-" | "of") M ["orgs"]   e.g. "2-outof-3 orgs", "2of3"
//
// An OUTOF form expands to the OR of all M-choose-N AND combinations over
// Org1..OrgM (peer role), exactly how the paper describes "2-outof-3 orgs"
// compiling to "(Org1 & Org2) | (Org1 & Org3) | (Org2 & Org3)".
func Parse(src string) (*Policy, error) {
	p := &parser{src: src, toks: tokenize(src)}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("%w: trailing input %q in %q", ErrParse, p.toks[p.pos], src)
	}
	return &Policy{Name: src, Expr: expr}, nil
}

// MaxEndorsements returns the number of distinct orgs referenced — the
// number of endorsements a client gathers for a transaction under this
// policy (one per referenced org, as in the paper's experiments).
func (p *Policy) MaxEndorsements() int {
	set := make(map[uint8]bool)
	p.Expr.orgs(set)
	return len(set)
}

// Circuit is the compiled hardware evaluator for one chaincode's policy.
// Evaluate is a single-cycle combinational read of the register file.
type Circuit struct {
	policy *Policy
	gates  GateCount
}

// Compile builds the combinational circuit for a policy; in hardware this
// is the generated ends_policy_evaluator module for one cc_id.
func Compile(p *Policy) *Circuit {
	c := &Circuit{policy: p}
	p.Expr.gates(&c.gates)
	return c
}

// Evaluate reports whether the policy output is currently high given the
// register file contents. Combinational: conceptually all sub-expressions
// evaluate in parallel.
func (c *Circuit) Evaluate(rf *RegisterFile) bool {
	return c.policy.Expr.eval(rf, nil)
}

// Gates returns the circuit's gate counts.
func (c *Circuit) Gates() GateCount { return c.gates }

// Policy returns the source policy.
func (c *Circuit) Policy() *Policy { return c.policy }

// CanStillSatisfy reports whether the policy could still become satisfied
// if every org in `remaining` later produced a valid endorsement. The
// ends_scheduler uses this for the invalidity short-circuit: once false,
// the transaction is invalid and remaining endorsements are discarded. It
// evaluates optimistically, each input high if its bit is set or one of
// remaining would set it, without a copy of the register file.
//
// bmaclint:noalloc
func (c *Circuit) CanStillSatisfy(rf *RegisterFile, remaining []identity.EncodedID) bool {
	return c.policy.Expr.eval(rf, remaining)
}

// --- parser ---

type parser struct {
	src  string
	toks []string
	pos  int
}

func tokenize(src string) []string {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(' || c == ')' || c == '&' || c == '|':
			toks = append(toks, string(c))
			i++
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\n()&|", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	if t != "" {
		p.pos++
	}
	return t
}

func (p *parser) parseExpr() (Expr, error) {
	return p.parseJoined("|", p.parseTerm, func(c []Expr) Expr { return Or{Children: c} })
}

func (p *parser) parseTerm() (Expr, error) {
	return p.parseJoined("&", p.parseFactor, func(c []Expr) Expr { return And{Children: c} })
}

// parseJoined parses one or more operands separated by op; two or more are
// joined into one node.
func (p *parser) parseJoined(op string, operand func() (Expr, error), join func([]Expr) Expr) (Expr, error) {
	var children []Expr
	for {
		c, err := operand()
		if err != nil {
			return nil, err
		}
		if children = append(children, c); p.peek() != op {
			break
		}
		p.next()
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return join(children), nil
}

func (p *parser) parseFactor() (Expr, error) {
	tok := p.next()
	switch {
	case tok == "":
		return nil, fmt.Errorf("%w: unexpected end of input in %q", ErrParse, p.src)
	case tok == "(":
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("%w: missing ')' in %q", ErrParse, p.src)
		}
		return e, nil
	case strings.HasPrefix(strings.ToLower(tok), "org"):
		return parseOrgRef(tok)
	default:
		return p.parseOutOf(tok)
	}
}

func parseOrgRef(tok string) (Expr, error) {
	rest := tok[3:]
	role := identity.RolePeer
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		switch strings.ToLower(rest[dot+1:]) {
		case "peer":
			role = identity.RolePeer
		case "admin":
			role = identity.RoleAdmin
		case "orderer":
			role = identity.RoleOrderer
		case "client":
			role = identity.RoleClient
		default:
			return nil, fmt.Errorf("%w: unknown role in %q", ErrParse, tok)
		}
		rest = rest[:dot]
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 || n > 255 {
		return nil, fmt.Errorf("%w: bad org reference %q", ErrParse, tok)
	}
	return OrgRef{Org: uint8(n), Role: role}, nil
}

// parseOutOf handles "2-outof-3", "2of3", and "2-outof-3 orgs" (the "orgs"
// suffix arrives as the following token and is consumed if present).
func (p *parser) parseOutOf(tok string) (Expr, error) {
	lower := strings.ToLower(tok)
	var kStr, mStr string
	switch {
	case strings.Contains(lower, "-outof-"):
		parts := strings.SplitN(lower, "-outof-", 2)
		kStr, mStr = parts[0], parts[1]
	case strings.Contains(lower, "of"):
		parts := strings.SplitN(lower, "of", 2)
		kStr, mStr = parts[0], parts[1]
	default:
		return nil, fmt.Errorf("%w: unrecognized token %q", ErrParse, tok)
	}
	k, err1 := strconv.Atoi(kStr)
	m, err2 := strconv.Atoi(mStr)
	if err1 != nil || err2 != nil || k < 1 || m < k || m > 16 {
		return nil, fmt.Errorf("%w: bad out-of form %q", ErrParse, tok)
	}
	if strings.EqualFold(p.peek(), "orgs") {
		p.next()
	}
	return expandOutOf(k, m), nil
}

// expandOutOf builds the OR of all C(m,k) AND terms over Org1..Orgm.
func expandOutOf(k, m int) Expr {
	var terms []Expr
	combo := make([]uint8, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(combo) == k {
			refs := make([]Expr, k)
			for i, o := range combo {
				refs[i] = OrgRef{Org: o, Role: identity.RolePeer}
			}
			if k == 1 {
				terms = append(terms, refs[0])
			} else {
				terms = append(terms, And{Children: refs})
			}
			return
		}
		for o := start; o <= m; o++ {
			combo = append(combo, uint8(o))
			rec(o + 1)
			combo = combo[:len(combo)-1]
		}
	}
	rec(1)
	if len(terms) == 1 {
		return terms[0]
	}
	return Or{Children: terms}
}
