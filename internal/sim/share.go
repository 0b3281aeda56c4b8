package sim

// Copy-on-divergence lanes. A configuration reaches a lane at three kinds
// of decision only: the eager harvest (on or off, and how many LRU
// positions are useless), a write issue (latency class, cancellability
// and counter) and a wear-quota slice boundary (whether slices run, and
// whether the next one is forced). Configurations that decide alike at all
// of them drive the lane identically, so one lane can stand for several:
// its primary, whose configuration the controller runs, and members, whose
// decisions the controller (issue, slice) and step (harvest) take beside
// the primary's without acting on them. The members that first decide
// otherwise split into a lane of their own at that access, rebuilt as it
// stood before the access, and run the access under their own
// configuration. Every configuration thus sees exactly the sequence of
// states its own lane would have, and its Metrics equal Evaluate's.
//
// A rebuilt lane takes its clocks and LLC state from values saved at the
// start of the access (an access changes at most two dirty words) and its
// tiers from a snapshot plus a replay of the hierarchy.Mem calls logged
// since. The first snapshot is the warm machine's tiers, which never
// change; every StepBatchSize accesses, or sooner when its log of
// StepBatchSize calls would overflow, the lane copies its tiers into a
// buffer it reuses, so the log stays bounded and the loop allocates
// nothing. A lane with no members keeps no log or snapshot.

import (
	"fmt"
	"sync"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
)

// testSplit, when set by a test, sees every split: the window position of
// the access the members split at, the window's length for the final
// drain.
var testSplit func(at int)

// group is what a lane that stands for several configurations keeps.
type group struct {
	// members are the lane's configurations besides its primary, in the
	// order of the lane's ids[1:], and eager their eager thresholds (0
	// when off). The controller checks every decision of theirs but the
	// eager harvest, which checkEager flags in eagerDiv (bit i for
	// members[i]).
	members  []config.Config
	eager    []int
	primary  int // the primary's eager threshold
	eagerDiv uint64

	// base holds the lane's tiers as they stood steps accesses ago, and
	// log the calls the lane has made on them since. base is the warm
	// machine's tiers (read only) until the first refresh copies the
	// lane's into own.
	base, own tiers
	log       memLog
	steps     int
	// at is the window position of the current access (the window's
	// length during the final drain).
	at int

	// The lane's state before the current access: its core's clock, its
	// LLC lane and the length of the log.
	core   coreState
	mark   cache.LaneMark
	logLen int
}

// tiers is a lane's memory tiers: a controller and, with the DRAM tier,
// the cache in front of it.
type tiers struct {
	ctrl *nvm.Controller
	dram *dram.Cache
}

// memLog is the mem seam of a lane with members: it forwards every call to
// the lane's top tier and logs those that change state. Drain is not
// logged: it is a lane's last call, so no split replays it.
type memLog struct {
	hierarchy.Mem
	calls []memCall
}

type memOp uint8

const (
	opRead memOp = iota
	opWrite
	opEager
)

// memCall is one logged hierarchy.Mem call.
type memCall struct {
	addr, now uint64
	op        memOp
}

func (g *memLog) Read(addr, now uint64) uint64 {
	g.calls = append(g.calls, memCall{addr, now, opRead})
	return g.Mem.Read(addr, now)
}

func (g *memLog) Write(addr, now uint64) uint64 {
	g.calls = append(g.calls, memCall{addr, now, opWrite})
	return g.Mem.Write(addr, now)
}

func (g *memLog) EagerWrite(addr, now uint64) bool {
	g.calls = append(g.calls, memCall{addr, now, opEager})
	return g.Mem.EagerWrite(addr, now)
}

// maxCallsPerAccess is the most calls an access makes on a lane's top
// tier: a writeback, a fill and an eager harvest.
const maxCallsPerAccess = 3

// logPool recycles the call logs of lanes with members, StepBatchSize
// calls each, across the batches of a sweep.
var logPool = sync.Pool{New: func() any {
	calls := make([]memCall, 0, StepBatchSize)
	return &calls
}}

// releaseLog returns the group's log to logPool.
func (g *group) releaseLog() {
	calls := g.log.calls[:0]
	g.log.calls = nil
	logPool.Put(&calls)
}

// replay repeats logged calls on mem.
func replay(mem hierarchy.Mem, calls []memCall) {
	for _, c := range calls {
		switch c.op {
		case opRead:
			mem.Read(c.addr, c.now)
		case opWrite:
			mem.Write(c.addr, c.now)
		case opEager:
			mem.EagerWrite(c.addr, c.now)
		}
	}
}

// maxLaneConfigs is the most configurations one lane stands for: the
// primary and nvm.MaxMembers members.
const maxLaneConfigs = nvm.MaxMembers + 1

// forkBatch forks the machine into the lanes that evaluate cfgs, each under
// the controller's own SetConfig: one lane for every maxLaneConfigs
// configurations, standing for all of them with the machine's tiers as
// its snapshot. The machine must be one no one steps (the warm machine of
// a Prepared). The first configuration the controller rejects fails the
// batch.
func (m *Machine) forkBatch(cfgs []config.Config) (*Machine, error) {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	n := m.fork(len(cfgs))
	warm := tiers{m.ctrl, m.dram}
	for start := 0; start < len(cfgs); start += maxLaneConfigs {
		l := &n.lane
		if start > 0 {
			c := m.lane.clone()
			l = &c
			n.lanes = append(n.lanes, l)
		}
		end := min(start+maxLaneConfigs, len(cfgs))
		for i := start; i < end; i++ {
			l.ids = append(l.ids, i)
		}
		must(l.ctrl.SetConfig(cfgs[start]))
		if end-start > 1 {
			l.share(cfgs[start+1:end], warm, -1)
		}
	}
	return n, nil
}

// must panics on an error a validated configuration cannot produce.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
}

// share makes the lane stand for members besides its own configuration,
// with base as its tiers' snapshot and at as the window position before
// its next access.
func (l *lane) share(members []config.Config, base tiers, at int) {
	g := &group{base: base, at: at}
	g.log.Mem, g.log.calls = l.mem, *logPool.Get().(*[]memCall)
	l.grp, l.mem = g, &g.log
	l.setMembers(members)
}

// setMembers installs the lane's members in its controller and group.
func (l *lane) setMembers(members []config.Config) {
	g := l.grp
	must(l.ctrl.SetMembers(members))
	g.members, g.eager, g.eagerDiv = members, g.eager[:0], 0
	_, g.primary = l.ctrl.EagerPolicy()
	for _, cfg := range members {
		g.eager = append(g.eager, cfg.Canonical().EagerThreshold)
	}
}

// diverged returns the members (bit i for grp.members[i]) that decided
// otherwise than the primary.
func (l *lane) diverged() uint64 { return l.ctrl.Diverged() | l.grp.eagerDiv }

// checkEager flags the members whose eager harvest would use another
// count of useless positions than the primary's useless (the harvest's
// decision point; both have room in the tiers).
func (g *group) checkEager(llc *cache.Cache, useless int) {
	for i, th := range g.eager {
		if th != g.primary && llc.UselessPositions(th) != useless {
			g.eagerDiv |= 1 << uint(i)
		}
	}
}

// begin records lane k's state before the current access (or the final
// drain) on core ci, first refreshing the snapshot if the log spans
// StepBatchSize accesses or has no room for another access's calls.
func (m *Machine) begin(k int, l *lane, ci int) {
	g := l.grp
	if g.steps == StepBatchSize || len(g.log.calls) > cap(g.log.calls)-maxCallsPerAccess {
		g.own.ctrl = l.ctrl.CloneInto(g.own.ctrl)
		if l.dram != nil {
			g.own.dram = l.dram.CloneInto(g.own.dram, g.own.ctrl)
		}
		g.base, g.log.calls, g.steps = g.own, g.log.calls[:0], 0
	}
	g.steps++
	g.at++
	g.core = l.cores[ci]
	g.mark = m.llc.MarkLane(k)
	g.logLen = len(g.log.calls)
}

// split moves lane k's diverged members into a new lane, appended to the
// machine's, as lane k stood before the current access on core ci: its
// tiers replayed from the snapshot, its clock and LLC lane rewound, under
// the first diverged member's configuration. The caller then runs the
// access on it. The members that agreed stay with lane k.
func (m *Machine) split(k, ci int) {
	l := m.lanes[k]
	g := l.grp
	div := l.diverged()
	var stay, leave []config.Config
	ids := []int{l.ids[0]}
	var leaveIDs []int
	for i, cfg := range g.members {
		if div>>uint(i)&1 != 0 {
			leave = append(leave, cfg)
			leaveIDs = append(leaveIDs, l.ids[i+1])
		} else {
			stay = append(stay, cfg)
			ids = append(ids, l.ids[i+1])
		}
	}

	n := &lane{
		cores:         append([]coreState(nil), l.cores...),
		winStartStats: l.winStartStats.Clone(),
		winStartDRAM:  l.winStartDRAM,
		ids:           leaveIDs,
	}
	n.cores[ci] = g.core
	n.setTiers(g.base.ctrl.Clone(), g.base.dram)
	must(n.ctrl.SetConfig(leave[0]))
	replay(n.mem, g.log.calls[:g.logLen])
	var victim uint64
	harvested := false
	for _, c := range g.log.calls[g.logLen:] {
		if c.op == opEager {
			victim, harvested = c.addr, true
		}
	}
	m.llc.CopyLane(len(m.lanes), k, g.mark, victim, harvested)
	if len(leave) > 1 {
		snap := tiers{ctrl: n.ctrl.Clone()}
		if n.dram != nil {
			snap.dram = n.dram.Clone(snap.ctrl)
		}
		n.share(leave[1:], snap, g.at-1)
		n.grp.own = snap
	}
	m.lanes = append(m.lanes, n)

	l.ids = ids
	if len(stay) == 0 {
		must(l.ctrl.SetMembers(nil))
		g.releaseLog()
		l.grp, l.mem = nil, g.log.Mem
	} else {
		l.setMembers(stay)
	}
	if testSplit != nil {
		testSplit(g.at)
	}
}
