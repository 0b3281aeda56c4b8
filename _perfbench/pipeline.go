package main

import (
	"fmt"
	"reflect"
	"time"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
	"mct/internal/rng"
	"mct/internal/sim"
	"mct/internal/trace"
)

// This file splits simulator time by layer from outside the simulator. It
// composes the machine's pipeline from the layers' public constructors —
// trace.NewGenerator → cache.New → optionally dram.New → nvm.New — applies
// the machine's clock arithmetic from the public sim.Options fields, and
// records two call streams: the LLC calls and the hierarchy.Mem calls (on
// hybrid machines also the DRAM tier's calls into the controller, with their
// results). Each stream is then replayed alone into a copy of its warmed
// layer, which times that layer without a timer on every call. The exactness
// guard compares the composed pipeline's statistics with sim.Machine's, so
// the split always describes the simulator's real traffic.

// llcOp is one recorded call into the LLC.
type llcOp struct {
	kind  uint8 // llcAccess, llcUseless or llcVictim
	write bool
	addr  uint64
	arg   int // eager threshold (llcUseless) or useless positions (llcVictim)
}

const (
	llcAccess = iota
	llcUseless
	llcVictim
)

// memOp is one recorded call across a hierarchy.Mem seam, with its result.
type memOp struct {
	kind uint8 // memRead … memSetConfig
	addr uint64
	now  uint64
	ret  uint64 // completion time, or 1/0 for the boolean calls
}

const (
	memRead = iota
	memWrite
	memEager
	memEagerSpace
	memDrain
	// memSetConfig marks the controller's reconfiguration between warmup
	// and measurement; replays apply it at the same point.
	memSetConfig
)

// recMem records every call into the wrapped tier.
type recMem struct {
	inner hierarchy.Mem
	ops   []memOp
}

func (r *recMem) Name() string { return r.inner.Name() }

func (r *recMem) Read(addr, now uint64) uint64 {
	v := r.inner.Read(addr, now)
	r.ops = append(r.ops, memOp{memRead, addr, now, v})
	return v
}

func (r *recMem) Write(addr, now uint64) uint64 {
	v := r.inner.Write(addr, now)
	r.ops = append(r.ops, memOp{memWrite, addr, now, v})
	return v
}

func (r *recMem) EagerWrite(addr, now uint64) bool {
	v := r.inner.EagerWrite(addr, now)
	r.ops = append(r.ops, memOp{memEager, addr, now, b2u(v)})
	return v
}

func (r *recMem) EagerSpace() bool {
	v := r.inner.EagerSpace()
	r.ops = append(r.ops, memOp{kind: memEagerSpace, ret: b2u(v)})
	return v
}

func (r *recMem) Drain(now uint64) uint64 {
	v := r.inner.Drain(now)
	r.ops = append(r.ops, memOp{memDrain, 0, now, v})
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// playback stands in for the controller under a replayed DRAM tier: it
// returns the recorded results in order and counts calls that diverge from
// the recording.
type playback struct {
	ops      []memOp
	i        int
	diverged int
}

func (p *playback) next(kind uint8, addr, now uint64) uint64 {
	if p.i >= len(p.ops) {
		p.diverged++
		return now
	}
	op := p.ops[p.i]
	p.i++
	if op.kind != kind || op.addr != addr || op.now != now {
		p.diverged++
	}
	return op.ret
}

func (p *playback) Name() string                     { return "nvm" }
func (p *playback) Read(addr, now uint64) uint64     { return p.next(memRead, addr, now) }
func (p *playback) Write(addr, now uint64) uint64    { return p.next(memWrite, addr, now) }
func (p *playback) EagerWrite(addr, now uint64) bool { return p.next(memEager, addr, now) == 1 }
func (p *playback) EagerSpace() bool                 { return p.next(memEagerSpace, 0, 0) == 1 }
func (p *playback) Drain(now uint64) uint64          { return p.next(memDrain, 0, now) }

// skipSetConfig advances past a recorded reconfiguration marker.
func (p *playback) skipSetConfig() {
	if p.i < len(p.ops) && p.ops[p.i].kind == memSetConfig {
		p.i++
	}
}

// pipeline is a single-core machine composed from the public layers.
type pipeline struct {
	o    sim.Options
	gen  *trace.Generator
	llc  *cache.Cache
	dram *dram.Cache // nil on the NVM-only hierarchy
	ctrl *nvm.Controller
	mem  hierarchy.Mem // the memory-side top: dram when present, else ctrl

	cpuCycles float64
	insts     uint64
	// multiCore selects sim.MultiMachine's step, which harvests eager
	// victims only after an LLC miss; sim.Machine's step harvests after
	// every access.
	multiCore bool

	// Recording, when on: the LLC calls, the calls into mem, and on hybrid
	// machines the DRAM tier's calls into the controller.
	recording bool
	llcOps    []llcOp
	memRec    *recMem
	nvmRec    *recMem
}

// dramParams resolves the DRAM tier parameters the way sim.Options
// documents them: the configured geometry, defaulted when zero, with the
// TierConfig promotion threshold applied.
func dramParams(o sim.Options) dram.Params {
	p := o.DRAM
	if p == (dram.Params{}) {
		p = dram.DefaultParams()
	}
	if o.Tiers.DRAMPromoteThreshold > 0 {
		p.PromoteThreshold = o.Tiers.DRAMPromoteThreshold
	}
	return p
}

func newPipeline(spec trace.Spec, cfg config.Config, o sim.Options) (*pipeline, error) {
	llc, err := cache.New(o.CacheBytes, o.CacheWays)
	if err != nil {
		return nil, err
	}
	ctrl, err := nvm.New(cfg, o.Params)
	if err != nil {
		return nil, err
	}
	p := &pipeline{o: o, gen: trace.NewGenerator(spec, rng.NewRand(o.Seed)), llc: llc, ctrl: ctrl, mem: ctrl}
	if o.Tiers.DRAMCache {
		if p.dram, err = dram.New(dramParams(o), ctrl); err != nil {
			return nil, err
		}
		p.mem = p.dram
	}
	return p, nil
}

// clone deep-copies the pipeline through the layers' Clone methods, with
// recording off.
func (p *pipeline) clone() *pipeline {
	n := &pipeline{o: p.o, gen: p.gen.Clone(), llc: p.llc.Clone(), ctrl: p.ctrl.Clone(),
		cpuCycles: p.cpuCycles, insts: p.insts}
	n.mem = n.ctrl
	if p.dram != nil {
		n.dram = p.dram.Clone(n.ctrl)
		n.mem = n.dram
	}
	return n
}

// record switches call recording on. It rewires the tier chain through
// recorders, so it must be called before stepping.
func (p *pipeline) record() {
	p.recording = true
	if p.dram != nil {
		p.nvmRec = &recMem{inner: p.ctrl}
		p.dram = p.dram.Clone(p.nvmRec)
		p.memRec = &recMem{inner: p.dram}
	} else {
		p.memRec = &recMem{inner: p.ctrl}
	}
	p.mem = p.memRec
}

func (p *pipeline) memNow() uint64 { return uint64(p.cpuCycles / p.o.CPUCyclesPerMemCycle) }

// step is sim.Machine's per-access step, rebuilt from public calls.
func (p *pipeline) step(a trace.Access) {
	o := &p.o
	p.cpuCycles += float64(a.InstGap) * o.BaseCPI
	p.insts += uint64(a.InstGap)

	if p.recording {
		p.llcOps = append(p.llcOps, llcOp{kind: llcAccess, write: a.Write, addr: a.Addr})
	}
	res := p.llc.Access(a.Addr, a.Write)
	if res.Hit {
		p.cpuCycles += o.LLCHitCycles
		if p.multiCore {
			return
		}
	} else {
		now := p.memNow()
		if res.Writeback {
			accepted := p.mem.Write(res.WritebackAddr, now)
			if accepted > now {
				p.cpuCycles += float64(accepted-now) * o.CPUCyclesPerMemCycle
				now = accepted
			}
		}
		done := p.mem.Read(res.FillAddr, now)
		latCPU := float64(done-now) * o.CPUCyclesPerMemCycle
		if a.Write {
			p.cpuCycles += latCPU * o.StoreStallFactor
		} else {
			p.cpuCycles += latCPU * o.ReadStallFactor
		}
	}

	cfg := p.ctrl.Config()
	if cfg.EagerWritebacks && p.mem.EagerSpace() {
		if p.recording {
			p.llcOps = append(p.llcOps, llcOp{kind: llcUseless, arg: cfg.EagerThreshold})
		}
		useless := p.llc.UselessPositions(cfg.EagerThreshold)
		if useless > 0 {
			if p.recording {
				p.llcOps = append(p.llcOps, llcOp{kind: llcVictim, arg: useless})
			}
			if addr, ok := p.llc.NextEagerVictim(useless, o.EagerScanSets); ok {
				p.mem.EagerWrite(addr, p.memNow())
			}
		}
	}
}

// run steps n accesses in sim.StepBatchSize batches, as the machine does.
func (p *pipeline) run(n int) {
	buf := make([]trace.Access, sim.StepBatchSize)
	for n > 0 {
		k := min(len(buf), n)
		p.gen.Fill(buf[:k])
		for i := range buf[:k] {
			p.step(buf[i])
		}
		n -= k
	}
}

// drain retires buffered writes and advances the clock past them, as the
// machine does at the end of a run.
func (p *pipeline) drain() {
	final := p.mem.Drain(p.memNow())
	if f := float64(final) * p.o.CPUCyclesPerMemCycle; f > p.cpuCycles {
		p.cpuCycles = f
	}
}

// warmup is sim.Machine.Warmup: n accesses, then a drain on hybrid
// machines so the DRAM tier's dirty set is charged to warmup.
func (p *pipeline) warmup(n int) {
	p.run(n)
	if p.dram != nil {
		p.drain()
	}
}

func (p *pipeline) setConfig(cfg config.Config) error {
	if p.memRec != nil {
		marker := memOp{kind: memSetConfig}
		p.memRec.ops = append(p.memRec.ops, marker)
		if p.nvmRec != nil {
			p.nvmRec.ops = append(p.nvmRec.ops, marker)
		}
	}
	return p.ctrl.SetConfig(cfg)
}

// layerStats are the statistics the exactness guard compares.
type layerStats struct {
	LLC       cache.Stats
	NVM       nvm.Stats
	DRAM      dram.Stats
	CPUCycles float64
	Insts     uint64
}

func (p *pipeline) stats() layerStats {
	s := layerStats{LLC: p.llc.Stats(), NVM: p.ctrl.Stats(), CPUCycles: p.cpuCycles, Insts: p.insts}
	if p.dram != nil {
		s.DRAM = p.dram.Stats()
	}
	return s
}

func machineStats(m *sim.Machine) layerStats {
	s := layerStats{LLC: m.Tiers()[0].(*cache.Cache).Stats(), NVM: m.Controller().Stats(),
		CPUCycles: m.CPUCycles(), Insts: m.Instructions()}
	if d := m.DRAM(); d != nil {
		s.DRAM = d.Stats()
	}
	return s
}

// guardDiff names the first statistic on which two runs differ, or "".
func guardDiff(got, want layerStats) string {
	switch {
	case !reflect.DeepEqual(got.LLC, want.LLC):
		return fmt.Sprintf("cache.Stats %+v, simulator %+v", got.LLC, want.LLC)
	case !reflect.DeepEqual(got.NVM, want.NVM):
		return "nvm.Stats differ"
	case got.DRAM != want.DRAM:
		return fmt.Sprintf("dram.Stats %+v, simulator %+v", got.DRAM, want.DRAM)
	case got.CPUCycles != want.CPUCycles: //mctlint:ignore floateq exactness is the point: the composed clock must match bit for bit
		return fmt.Sprintf("CPU cycles %v, simulator %v", got.CPUCycles, want.CPUCycles)
	case got.Insts != want.Insts:
		return fmt.Sprintf("instructions %d, simulator %d", got.Insts, want.Insts)
	}
	return ""
}

// legSplit accumulates one leg's measured-window layer times and counts.
type legSplit struct {
	accesses                   float64
	step, fill, cache, access  time.Duration
	dramSelf, nvm, drain       time.Duration
	nvmCalls, dramCalls        float64
	hits, misses               float64
	scans, victims             float64
	demandWrites, queueFull    float64
	eagerWrites, cancelled     float64
	dramHits, dramMisses       float64
	guardChecks, guardFailures int
	drains                     int
}

func (s *legSplit) add(o legSplit) {
	s.accesses += o.accesses
	s.step += o.step
	s.fill += o.fill
	s.cache += o.cache
	s.access += o.access
	s.dramSelf += o.dramSelf
	s.nvm += o.nvm
	s.drain += o.drain
	s.nvmCalls += o.nvmCalls
	s.dramCalls += o.dramCalls
	s.hits += o.hits
	s.misses += o.misses
	s.scans += o.scans
	s.victims += o.victims
	s.demandWrites += o.demandWrites
	s.queueFull += o.queueFull
	s.eagerWrites += o.eagerWrites
	s.cancelled += o.cancelled
	s.dramHits += o.dramHits
	s.dramMisses += o.dramMisses
	s.guardChecks += o.guardChecks
	s.guardFailures += o.guardFailures
	s.drains += o.drains
}

// splitLeg warms bench's machine once under the default configuration, then
// for each configuration measures n accesses on a copy of the warm
// sim.Machine (the step time), on a recording copy of the composed pipeline
// (the guard), and replays the recorded streams into copies of the warm
// layers.
func splitLeg(bench string, o sim.Options, cfgs []config.Config, n int, spans *spanLog, opID int64) (legSplit, error) {
	var out legSplit
	spec, err := trace.ByName(bench)
	if err != nil {
		return out, err
	}
	m, err := sim.NewMachine(spec, config.Default(), o)
	if err != nil {
		return out, err
	}
	m.Warmup(sim.DefaultWarmupAccesses)
	warm, err := newPipeline(spec, config.Default(), o)
	if err != nil {
		return out, err
	}
	warm.warmup(sim.DefaultWarmupAccesses)

	for _, cfg := range cfgs {
		leg := spans.start(opID, 0, "split "+bench)
		// Every timing below is the faster of two runs, which keeps
		// interference from other processes out of the split.
		var want layerStats
		step := time.Duration(1 << 62)
		for rep := 0; rep < 2; rep++ {
			mc := m.Clone()
			if err := mc.SetConfig(cfg); err != nil {
				return out, err
			}
			s := spans.start(opID, leg, "sim.RunAccesses")
			start := time.Now()
			mc.RunAccesses(n)
			step = min(step, time.Since(start))
			spans.end(s)
			want = machineStats(mc)
		}
		out.step += step
		out.accesses += float64(n)

		p := warm.clone()
		p.record()
		if err := p.setConfig(cfg); err != nil {
			return out, err
		}
		genCut := p.gen.Clone()
		before := p.stats()
		p.run(n)
		got := p.stats()
		out.guardChecks++
		if diff := guardDiff(got, want); diff != "" {
			out.guardFailures++
			logf("guard %s %s: %s", bench, cfg, diff)
		}
		drainAt := len(p.memRec.ops)
		nvmDrainAt := 0
		if p.nvmRec != nil {
			nvmDrainAt = len(p.nvmRec.ops)
		}
		p.drain()
		out.drains++

		out.hits += float64(got.LLC.Hits - before.LLC.Hits)
		out.misses += float64(got.LLC.Misses - before.LLC.Misses)
		out.demandWrites += float64(got.NVM.DemandWrites - before.NVM.DemandWrites)
		out.queueFull += float64(got.NVM.QueueFullStalls - before.NVM.QueueFullStalls)
		out.eagerWrites += float64(got.NVM.EagerWrites - before.NVM.EagerWrites)
		out.cancelled += float64(got.NVM.CancelledWrites - before.NVM.CancelledWrites)
		out.dramHits += float64(got.DRAM.Hits - before.DRAM.Hits)
		out.dramMisses += float64(got.DRAM.Misses - before.DRAM.Misses)
		for _, op := range p.llcOps {
			if op.kind == llcVictim {
				out.scans++
			}
		}
		out.victims += float64(got.LLC.EagerWrites - before.LLC.EagerWrites)

		// Replays, each into a copy of its warm layer.
		s := spans.start(opID, leg, "trace.Fill")
		out.fill += min(replayFill(genCut.Clone(), n), replayFill(genCut, n))
		spans.end(s)
		s = spans.start(opID, leg, "cache.replay")
		full, accessOnly, bad := replayLLC(warm.llc, p.llcOps, o.EagerScanSets)
		full2, accessOnly2, _ := replayLLC(warm.llc, p.llcOps, o.EagerScanSets)
		spans.end(s)
		out.cache += min(full, full2)
		out.access += min(accessOnly, accessOnly2)
		out.guardFailures += bad

		nvmOps := p.memRec.ops
		nvmStop := drainAt
		if p.dram != nil {
			s = spans.start(opID, leg, "dram.replay")
			self, calls, bad := replayDRAM(warm.dram, p.memRec.ops[:drainAt], p.nvmRec.ops[:nvmDrainAt])
			self2, _, _ := replayDRAM(warm.dram, p.memRec.ops[:drainAt], p.nvmRec.ops[:nvmDrainAt])
			spans.end(s)
			out.dramSelf += min(self, self2)
			out.dramCalls += calls
			out.guardFailures += bad
			nvmOps, nvmStop = p.nvmRec.ops, nvmDrainAt
		}
		s = spans.start(opID, leg, "nvm.replay")
		t, drain, calls, bad := replayNVM(warm.ctrl, nvmOps, nvmStop, cfg)
		t2, drain2, _, _ := replayNVM(warm.ctrl, nvmOps, nvmStop, cfg)
		spans.end(s)
		out.nvm += min(t, t2)
		out.drain += min(drain, drain2)
		out.nvmCalls += calls
		out.guardFailures += bad
		spans.end(leg)
	}
	return out, nil
}

// replayFill times regenerating n accesses from the measurement cut.
func replayFill(g *trace.Generator, n int) time.Duration {
	buf := make([]trace.Access, sim.StepBatchSize)
	start := time.Now()
	for n > 0 {
		k := min(len(buf), n)
		g.Fill(buf[:k])
		n -= k
	}
	return time.Since(start)
}

// replayLLC replays the LLC stream into two copies of the warm cache: once
// in full, once with only the Access calls. The difference is the eager
// victim scan. bad counts full-replay victim scans whose outcome differs
// from the recording's next eager write.
func replayLLC(warm *cache.Cache, ops []llcOp, scanSets int) (full, accessOnly time.Duration, bad int) {
	c := warm.Clone()
	start := time.Now()
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case llcAccess:
			c.Access(op.addr, op.write)
		case llcUseless:
			if c.UselessPositions(op.arg) != usefulArg(ops, i) {
				bad++
			}
		case llcVictim:
			c.NextEagerVictim(op.arg, scanSets)
		}
	}
	full = time.Since(start)

	c = warm.Clone()
	start = time.Now()
	for i := range ops {
		if ops[i].kind == llcAccess {
			c.Access(ops[i].addr, ops[i].write)
		}
	}
	return full, time.Since(start), bad
}

// usefulArg returns the useless-position count the recording saw after the
// scan at i: the next op's argument when it is a victim scan, else 0.
func usefulArg(ops []llcOp, i int) int {
	if i+1 < len(ops) && ops[i+1].kind == llcVictim {
		return ops[i+1].arg
	}
	return 0
}

// replayDRAM replays the LLC-side memory stream into a copy of the warm
// DRAM tier whose next tier plays back the recorded controller results. Its
// self time is the replay minus the playback's own cost. Only the measured
// window (before the final drain) is timed.
func replayDRAM(warm *dram.Cache, top, below []memOp) (self time.Duration, calls float64, bad int) {
	pb := &playback{ops: below}
	d := warm.Clone(pb)
	start := time.Now()
	for _, op := range top {
		switch op.kind {
		case memRead:
			if d.Read(op.addr, op.now) != op.ret {
				bad++
			}
			calls++
		case memWrite:
			if d.Write(op.addr, op.now) != op.ret {
				bad++
			}
			calls++
		case memEager:
			if b2u(d.EagerWrite(op.addr, op.now)) != op.ret {
				bad++
			}
			calls++
		case memEagerSpace:
			d.EagerSpace()
		case memDrain:
			d.Drain(op.now)
			calls++
		case memSetConfig:
			pb.skipSetConfig()
		}
	}
	total := time.Since(start)

	// The playback's own cost: the same calls without the tier.
	pb2 := &playback{ops: below}
	start = time.Now()
	for _, op := range below {
		switch op.kind {
		case memRead:
			pb2.Read(op.addr, op.now)
		case memWrite:
			pb2.Write(op.addr, op.now)
		case memEager:
			pb2.EagerWrite(op.addr, op.now)
		case memEagerSpace:
			pb2.EagerSpace()
		case memDrain:
			pb2.Drain(op.now)
		case memSetConfig:
			pb2.skipSetConfig()
		}
	}
	self = total - time.Since(start)
	return self, calls, bad + pb.diverged
}

// replayNVM replays the controller's call stream into a copy of the warm
// controller. Calls before stop form the measured window. The ops from stop
// on are the end-of-run drain — on hybrid machines the DRAM tier's flush
// writes, then the controller's Drain — and only that final Drain call is
// timed as the drain.
func replayNVM(warm *nvm.Controller, ops []memOp, stop int, cfg config.Config) (window, drain time.Duration, calls float64, bad int) {
	c := warm.Clone()
	apply := func(op memOp) {
		var got uint64
		switch op.kind {
		case memRead:
			got = c.Read(op.addr, op.now)
		case memWrite:
			got = c.Write(op.addr, op.now)
		case memEager:
			got = b2u(c.EagerWrite(op.addr, op.now))
		case memEagerSpace:
			got = b2u(c.EagerSpace())
		case memDrain:
			got = c.Drain(op.now)
		case memSetConfig:
			if err := c.SetConfig(cfg); err != nil {
				bad++
			}
			return
		}
		if got != op.ret {
			bad++
		}
	}
	start := time.Now()
	for _, op := range ops[:stop] {
		apply(op)
	}
	window = time.Since(start)
	for _, op := range ops[:stop] {
		if op.kind != memEagerSpace && op.kind != memSetConfig {
			calls++
		}
	}
	last := len(ops) - 1
	for _, op := range ops[stop:last] {
		apply(op)
	}
	start = time.Now()
	apply(ops[last])
	drain = time.Since(start)
	return window, drain, calls, bad
}

// coreAddrStride is the per-core address-space offset of sim.MultiMachine.
const coreAddrStride = 1 << 34

// multiGuard runs mix on sim.MultiMachine and on a composed multi-core
// pipeline — per-core generators, the shared LLC and controller, the
// least-advanced core stepping next — and compares the window counters the
// multi-core machine reports. It returns "" when they agree.
func multiGuard(mix string, seed int64, cfg config.Config, insts uint64) (string, error) {
	specs, err := trace.MixByName(mix)
	if err != nil {
		return "", err
	}
	mo := sim.DefaultMultiOptions()
	mo.Seed = seed
	mm, err := sim.NewMultiMachine(specs, config.Default(), mo)
	if err != nil {
		return "", err
	}
	warm := 4 * sim.DefaultWarmupAccesses
	mm.Warmup(warm)
	if err := mm.SetConfig(cfg); err != nil {
		return "", err
	}
	want := mm.RunInstructions(insts)

	o := mo.Options
	p, err := newPipeline(specs[0], config.Default(), o)
	if err != nil {
		return "", err
	}
	p.multiCore = true
	cores := len(specs)
	gens := make([]*trace.Generator, cores)
	for i, spec := range specs {
		gens[i] = trace.NewGeneratorAt(spec, rng.DeriveRand(seed, int64(i)), uint64(i)*coreAddrStride)
	}
	cycles := make([]float64, cores)
	coreInsts := make([]uint64, cores)
	stepCore := func() {
		c := 0
		for i := 1; i < cores; i++ {
			if cycles[i] < cycles[c] {
				c = i
			}
		}
		// The single-core step on core c's clock and generator.
		p.cpuCycles, p.insts = cycles[c], coreInsts[c]
		p.step(gens[c].Next())
		cycles[c], coreInsts[c] = p.cpuCycles, p.insts
	}
	for i := 0; i < warm; i++ {
		stepCore()
	}
	if err := p.ctrl.SetConfig(cfg); err != nil {
		return "", err
	}
	c0 := append([]float64(nil), cycles...)
	var start uint64
	for _, v := range coreInsts {
		start += v
	}
	s0 := p.ctrl.Stats()
	for {
		var tot uint64
		for _, v := range coreInsts {
			tot += v
		}
		if tot >= start+insts {
			break
		}
		stepCore()
	}
	s1 := p.ctrl.Stats()
	var total uint64
	var maxCycles float64
	for i := range coreInsts {
		total += coreInsts[i]
		maxCycles = max(maxCycles, cycles[i]-c0[i])
	}
	got := [...]uint64{total - start, s1.Reads - s0.Reads, s1.DemandWrites + s1.EagerWrites - s0.DemandWrites - s0.EagerWrites,
		s1.EagerWrites - s0.EagerWrites, s1.CancelledWrites - s0.CancelledWrites, s1.QueueFullStalls - s0.QueueFullStalls}
	exp := [...]uint64{want.Instructions, want.MemReads, want.MemWrites, want.EagerWrites, want.CancelledWrites, want.QueueFullStalls}
	if got != exp {
		return fmt.Sprintf("instructions/reads/writes/eager/cancelled/queue-full %v, simulator %v", got, exp), nil
	}
	if maxCycles != want.CPUCycles { //mctlint:ignore floateq exactness is the point: the composed clocks must match bit for bit
		return fmt.Sprintf("CPU cycles %v, simulator %v", maxCycles, want.CPUCycles), nil
	}
	return "", nil
}
