package cluster

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"bmac/internal/chaos"
	"bmac/internal/delivery"
	"bmac/internal/telemetry"
)

// Step actions. A peer action strikes a fast peer other than the observer;
// kill-leader strikes the raft leader.
const (
	Kill           = "kill"            // close the peer's listener, drain its commit loop, close its ledger
	CorruptSegment = "corrupt-segment" // flip a byte in a killed peer's oldest sealed ledger segment
	Restart        = "restart"         // reopen a killed peer from checkpoint + ledger replay
	Sever          = "sever"           // cut the peer's delivery link: sends and redials fail
	Heal           = "heal"            // restore a severed link
	KillLeader     = "kill-leader"     // stop the raft leader; done at the first block after a new one is elected
	CorruptFrames  = "corrupt-frames"  // bit-flip about every 7th gossip frame to the peer
	SlowDisk       = "slow-disk"       // 1 ms per write and a transient error every 3rd under the peer's ledger
)

var actions = []string{Kill, CorruptSegment, Restart, Sever, Heal, KillLeader, CorruptFrames, SlowDisk}

// Leader is the Victim of a kill-leader step.
const Leader = -1

// Trigger says when a step fires.
type Trigger int

const (
	AtHeight    Trigger = iota // once the delivery service has published At blocks
	AtCommitted                // once the victim has committed At blocks
	// Behind fires once the victim has fallen more than the retained window
	// behind where the step that took it down left it, so catching up
	// needs the orderer's ledger.
	Behind
)

// Step is one scripted action. Victim is the index of a fast peer other
// than the observer (peer0), or Leader.
type Step struct {
	Action string
	Victim int
	When   Trigger
	At     uint64
}

func (s Step) String() string {
	victim := fmt.Sprintf("peer%d", s.Victim)
	if s.Victim == Leader {
		victim = "leader"
	}
	switch s.When {
	case AtCommitted:
		return fmt.Sprintf("%s %s after %d commits", s.Action, victim, s.At)
	case Behind:
		return fmt.Sprintf("%s %s once behind the window", s.Action, victim)
	}
	return fmt.Sprintf("%s %s at height %d", s.Action, victim, s.At)
}

// Scenario is an ordered script. A step fires once its trigger holds and
// the step before it has finished; once the load has completed, the
// remaining steps fire without waiting for their triggers. corrupt-frames
// and slow-disk fire at height 0 only: they are installed while their
// victim is built.
type Scenario []Step

// scripts are the named scenarios, each striking one victim. churn-corrupt
// kills after four commits, so that a small segment budget has sealed a
// segment to corrupt.
var scripts = []struct {
	name  string
	steps func(v int) Scenario
}{
	{"churn", func(v int) Scenario { return Scenario{{Kill, v, AtCommitted, 2}, {Restart, v, Behind, 0}} }},
	{"churn-corrupt", func(v int) Scenario {
		return Scenario{{Kill, v, AtCommitted, 4}, {CorruptSegment, v, AtHeight, 0}, {Restart, v, Behind, 0}}
	}},
	{"partition", func(v int) Scenario { return Scenario{{Sever, v, AtHeight, 2}, {Heal, v, Behind, 0}} }},
	{"corruption", func(v int) Scenario { return Scenario{{CorruptFrames, v, AtHeight, 0}} }},
	{"slowdisk", func(v int) Scenario { return Scenario{{SlowDisk, v, AtHeight, 0}} }},
	{"leaderkill", func(int) Scenario { return Scenario{{KillLeader, Leader, AtHeight, 2}} }},
}

// Scripts lists the named scenarios.
func Scripts() []string {
	names := make([]string, len(scripts))
	for i, s := range scripts {
		names[i] = s.name
	}
	return names
}

// Script returns the named scenario striking the peer victim (leaderkill
// strikes the raft leader instead).
func Script(name string, victim int) (Scenario, error) {
	for _, s := range scripts {
		if s.name == name {
			return s.steps(victim), nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown scenario %q (valid: %v)", name, Scripts())
}

// check validates the script against the run's peer mix and raft size:
// every step names a known action and a victim it may strike, finds the
// victim in the state it needs, and every victim ends up.
func (sc Scenario) check(o Options) error {
	down := make(map[int]string) // by victim: the action that took it down
	installed := make(map[Step]bool)
	for i, s := range sc {
		v, why := s.Victim, ""
		switch {
		case s.Action == KillLeader:
			switch {
			case v != Leader || s.When != AtHeight:
				why = "kill-leader strikes the raft leader at a height"
			case o.RaftNodes < 3:
				why = fmt.Sprintf("needs RaftNodes >= 3 to re-elect (have %d)", o.RaftNodes)
			case slices.ContainsFunc(sc[:i], func(p Step) bool { return p.Action == KillLeader }):
				why = "one kill-leader per script"
			}
		case !slices.Contains(actions, s.Action):
			why = fmt.Sprintf("unknown action (valid: %v)", actions)
		case v < 1 || v >= o.Peers-o.SlowPeers:
			why = fmt.Sprintf("the victim must be a fast peer other than the observer peer0 (have %d peers, %d slow)",
				o.Peers, o.SlowPeers)
		case s.Action == CorruptFrames || s.Action == SlowDisk:
			if s.When != AtHeight || s.At != 0 || installed[s] {
				why = "installed once, while the victim is built: at height 0"
			}
			installed[s] = true
		case s.When == Behind && down[v] == "":
			why = "only a step that brings its victim back can wait for it to fall behind"
		case (s.Action == Kill || s.Action == Sever) && down[v] != "":
			why = "the victim is already down"
		case (s.Action == Restart || s.Action == CorruptSegment) && down[v] != Kill:
			why = "the victim is not killed"
		case s.Action == Heal && down[v] != Sever:
			why = "the victim is not severed"
		}
		if why != "" {
			return fmt.Errorf("cluster: step %q: %s", s, why)
		}
		switch s.Action {
		case Kill, Sever:
			down[v] = s.Action
		case Restart, Heal:
			delete(down, v)
		}
	}
	for v := range down {
		return fmt.Errorf("cluster: the scenario leaves peer%d down", v)
	}
	return nil
}

// Event is one step as it played out.
type Event struct {
	Step Step
	// Victim is the struck peer, or the raft node a kill-leader stopped.
	Victim string
	// Fired is the delivery height when the step fired. Done is the
	// victim's ledger height after a kill or a restart, and the delivery
	// height when any other step finished.
	Fired, Done uint64
	File        string // corrupt-segment: the sealed segment it damaged
	NewLeader   string // kill-leader: the raft node that leads at the first block after the kill
	// The counters of the instrument the step installed: the victim's
	// switch, the corrupt-frames corrupter, the slow-disk shim.
	Heals, CorruptedFrames, DiskWrites, DiskFaults int64
}

// player plays a scenario against a live run.
type player struct {
	steps  Scenario
	next   int  // the step to fire next
	fired  bool // steps[next] has fired and not yet finished
	events []Event
	downAt map[int]uint64 // by victim: where the step that took it down left it

	// The instruments, by victim.
	switches   map[int]*chaos.Switch
	corrupters map[int]*chaos.Corrupter
	disks      map[int]*chaos.DiskFault

	// Set once the run is wired.
	peers   []*swPeer // Run's slice: a restart replaces its entry
	svc     *delivery.Service
	window  uint64
	stack   *Stack
	restart func(i int) (uint64, error) // reports the height the peer recovered to
}

// newPlayer creates the instruments the script installs, exported on reg:
// the switch a sever cuts, and the corrupters and disk shims its victims
// are built with.
func newPlayer(sc Scenario, reg *telemetry.Registry) *player {
	p := &player{steps: sc, downAt: make(map[int]uint64), switches: make(map[int]*chaos.Switch),
		corrupters: make(map[int]*chaos.Corrupter), disks: make(map[int]*chaos.DiskFault)}
	for _, s := range sc {
		v := s.Victim
		name := func(metric string) string { return telemetry.Name(metric, "peer", fmt.Sprintf("peer%d", v)) }
		switch s.Action {
		case Sever:
			if p.switches[v] == nil {
				p.switches[v] = &chaos.Switch{}
				reg.GaugeFunc(name("chaos_partition_heals_total"), p.switches[v].Heals)
			}
		case CorruptFrames:
			c := chaos.NewCorrupter(7)
			p.corrupters[v] = c
			reg.GaugeFunc(name("chaos_corrupted_frames_total"), func() int64 { _, f := c.Stats(); return f })
		case SlowDisk:
			d := &chaos.DiskFault{Latency: time.Millisecond, FailEvery: 3}
			p.disks[v] = d
			reg.GaugeFunc(name("chaos_disk_fault_retries_total"), func() int64 { _, f := d.Stats(); return f })
		}
		if s.Action == CorruptFrames || s.Action == SlowDisk {
			p.events = append(p.events, Event{Step: s, Victim: fmt.Sprintf("peer%d", v)})
		}
	}
	return p
}

// wire routes peer i's delivery link through the instruments the script
// installs on it, and gives a link the script takes down a redial budget
// that outlasts the outage; the backoff cap keeps the pipe from spinning
// hot against the dead link.
func (p *player) wire(i int, po *delivery.PeerOptions, addr *peerAddr) {
	c := p.corrupters[i]
	if c != nil {
		po.Dial = func() (delivery.Transport, error) { return c.Dialer(*addr.Load())() }
	}
	if sw := p.switches[i]; sw != nil {
		po.Dial = chaos.SeverableDialer(po.Dial, sw)
	}
	for _, s := range p.steps {
		if s.Victim == i && (s.Action == Kill || s.Action == Sever) {
			po.MaxRedials, po.RedialWait = 4000, 5*time.Millisecond
		}
	}
	if c != nil {
		po.MaxRedials, po.RedialWait = 4000, 2*time.Millisecond
	}
}

// tick fires the script's steps in order, each once its trigger holds or
// at once when over (the load is done). A step that cannot finish yet
// retries on the next tick. tick reports whether the script has played out.
func (p *player) tick(over bool) (bool, error) {
	for ; p.next < len(p.steps); p.next++ {
		s := p.steps[p.next]
		if s.Action == CorruptFrames || s.Action == SlowDisk {
			continue // installed while the victim was built
		}
		if !p.fired {
			if !over && !p.due(s) {
				return false, nil
			}
			p.fired = true
			e := Event{Step: s, Fired: p.svc.Height()}
			if s.Victim != Leader {
				e.Victim = p.peers[s.Victim].name
			}
			p.events = append(p.events, e)
		}
		if done, err := p.act(s, len(p.events)-1, over); err != nil || !done {
			return false, err
		}
		p.fired = false
	}
	return true, nil
}

func (p *player) due(s Step) bool {
	switch s.When {
	case AtCommitted:
		v := p.peers[s.Victim]
		v.mu.Lock()
		defer v.mu.Unlock()
		return uint64(v.blocks) >= s.At
	case Behind:
		return p.svc.Height() >= p.downAt[s.Victim]+p.window+2
	}
	return p.svc.Height() >= s.At
}

// act carries out the fired step of event ei and reports whether it has
// finished. over says the load is done and committed.
func (p *player) act(s Step, ei int, over bool) (bool, error) {
	e, v := &p.events[ei], s.Victim
	e.Done = e.Fired
	var err error
	switch s.Action {
	case Kill:
		e.Done, err = p.peers[v].kill()
		p.downAt[v] = e.Done
	case CorruptSegment:
		e.File, err = chaos.CorruptSealedSegment(p.peers[v].dir)
		e.File = filepath.Base(e.File)
	case Restart:
		e.Done, err = p.restart(v)
	case Sever:
		p.switches[v].Sever()
		p.downAt[v] = e.Fired
	case Heal:
		p.switches[v].Heal()
	case KillLeader:
		return p.killLeader(e, over), nil
	}
	if err != nil {
		return false, fmt.Errorf("cluster: %s %s: %w", s.Action, e.Victim, err)
	}
	return true, nil
}

// killLeader stops the raft leader, then waits for a new one and for the
// first block after its election (with the load over, for the election
// alone). The orderer follows the new leader by itself.
func (p *player) killLeader(e *Event, over bool) bool {
	leader := p.stack.Raft.Nodes[0].Leader()
	if leader == nil {
		return false // the election is still running
	}
	name := fmt.Sprintf("raft%d", slices.Index(p.stack.Raft.Nodes, leader))
	switch {
	case e.Victim == "":
		leader.Stop()
		e.Victim = name
	case e.NewLeader == "":
		e.NewLeader, e.Done = name, p.svc.Height()
		return over
	case p.svc.Height() > e.Done || over:
		e.NewLeader, e.Done = name, p.svc.Height()
		return true
	}
	return false
}

// report reads the instruments' counters into the events of the steps
// that installed them and returns the timeline. A victim severed twice
// reports its heals on both severs.
func (p *player) report() []Event {
	for i := range p.events {
		e := &p.events[i]
		switch v := e.Step.Victim; e.Step.Action {
		case Sever:
			e.Heals = p.switches[v].Heals()
		case CorruptFrames:
			_, e.CorruptedFrames = p.corrupters[v].Stats()
		case SlowDisk:
			e.DiskWrites, e.DiskFaults = p.disks[v].Stats()
		}
	}
	return p.events
}
