// The tick-sweep reference controller: the controller's scheduling logic as
// it stood before the event horizon, kept verbatim so the optimized
// controller can be checked against it call by call. Every Advance visits
// all banks in index order whenever any write is queued, and every issued
// write bumps the WritesByRatio map directly.
//
// refController embeds a production Controller for its scalar state and
// for the pure helpers (drain watermarks, wear quota, pulse progress); the
// methods that decide when and what a bank issues are re-implemented here,
// and so are the address mapping (division, not shift and mask) and the
// per-issue pulse and wear arithmetic, so a fault in the production
// helpers cannot hide in both controllers at once. The banks are its own:
// plain per-bank queue slices and in-flight records, never the production
// queue arena, so a queue-order fault cannot hide in both either, and its
// Snapshot builds the checkpoint form from them directly. The embedded
// banks, arena and horizon fields (pend, dpend, ev, nextEvent, swept), the
// per-class write counters and the class cost table are never touched by
// these methods.
package nvm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mct/internal/config"
)

type refController struct {
	*Controller
	banks []refBank
}

// refBank is one bank as the controller held it before the queue arena:
// slice queues and a full in-flight record.
type refBank struct {
	freeAt   uint64
	op       refOp
	opValid  bool
	writes   []writeReq
	eager    []writeReq
	openRow  uint64
	rowValid bool
}

type refOp struct {
	req         writeReq
	pulseStart  uint64
	done        uint64
	ratio       float64
	cancellable bool
	token       int
}

func newRef(cfg config.Config, p Params) (*refController, error) {
	c, err := New(cfg, p)
	if err != nil {
		return nil, err
	}
	return &refController{Controller: c, banks: make([]refBank, p.Banks)}, nil
}

// popFront removes q[0] by shifting the tail down one slot.
func popFront(q []writeReq) []writeReq {
	copy(q, q[1:])
	return q[:len(q)-1]
}

func reqToState(r writeReq) WriteReqState {
	return WriteReqState{Addr: r.addr, Enq: r.enq, Cancels: int(r.cancels), Eager: r.eager}
}

func reqsToState(rs []writeReq) []WriteReqState {
	if len(rs) == 0 {
		return nil
	}
	out := make([]WriteReqState, len(rs))
	for i, r := range rs {
		out[i] = reqToState(r)
	}
	return out
}

// Snapshot is the production Snapshot as it read the pre-arena banks.
func (c *refController) Snapshot() Snapshot {
	s := c.Controller.Snapshot()
	for i := range c.banks {
		b := &c.banks[i]
		bs := BankSnapshot{
			FreeAt:   b.freeAt,
			Writes:   reqsToState(b.writes),
			Eager:    reqsToState(b.eager),
			OpenRow:  b.openRow,
			RowValid: b.rowValid,
		}
		if b.opValid && b.freeAt > c.swept {
			bs.Op = &InflightState{
				Req:         reqToState(b.op.req),
				PulseStart:  b.op.pulseStart,
				Done:        b.op.done,
				Ratio:       b.op.ratio,
				Cancellable: b.op.cancellable,
				Token:       b.op.token,
			}
		}
		s.Banks[i] = bs
	}
	return s
}

func (c *refController) rowOf(addr uint64) uint64 {
	rb := c.p.RowBytes
	if rb == 0 {
		rb = 1024
	}
	return addr / rb
}

func (c *refController) bankOf(addr uint64) int {
	row := c.rowOf(addr)
	h := row ^ (row >> 4) ^ (row >> 8) ^ (row >> 12) ^ (row >> 16)
	return int(h % uint64(c.p.Banks)) //mctlint:ignore cyclecast remainder is bounded by the bank count
}

func (c *refController) wearPerWrite(ratio float64) float64 {
	return 1.0 / (c.p.EnduranceBase * c.p.WearCalibration * ratio * ratio)
}

func (c *refController) twp(ratio float64) uint64 {
	return uint64(math.Round(float64(c.p.TWP) * ratio))
}

// Stats returns a snapshot of the counters.
func (c *refController) Stats() Stats {
	s := c.st
	s.WearByBank = append([]float64(nil), c.st.WearByBank...)
	byRatio := make(map[float64]uint64, len(c.st.WritesByRatio))
	for k, v := range c.st.WritesByRatio {
		byRatio[k] = v
	}
	s.WritesByRatio = byRatio
	return s
}

// Advance processes queued work on all banks up to time t, honouring
// wear-quota slice boundaries.
func (c *refController) Advance(t uint64) {
	if t <= c.now {
		return
	}
	if c.cfg.WearQuota {
		for c.nextSlice <= t {
			boundary := c.nextSlice
			c.advanceBanks(boundary)
			c.now = boundary
			c.updateWearQuota(boundary)
			c.nextSlice += c.p.WearQuotaSliceCycles
		}
	}
	c.advanceBanks(t)
	c.now = t
}

func (c *refController) advanceBanks(t uint64) {
	if c.writeQLen == 0 && c.eagerQLen == 0 {
		return
	}
	for b := range c.banks {
		c.advanceBank(b, t)
	}
}

func (c *refController) advanceBank(b int, t uint64) {
	bank := &c.banks[b]
	for {
		if bank.freeAt > t {
			return
		}
		bank.opValid = false // any prior op has completed by freeAt ≤ t

		var req writeReq
		var isEager bool
		switch {
		case len(bank.writes) > 0 && bank.writes[0].enq <= t:
			req = bank.writes[0]
			bank.writes = popFront(bank.writes)
			c.writeQLen--
			c.updateDrainMode()
		case len(bank.eager) > 0 && bank.eager[0].enq <= t && c.eagerAllowed():
			req = bank.eager[0]
			bank.eager = popFront(bank.eager)
			c.eagerQLen--
			isEager = true
		default:
			return
		}
		c.issueWrite(b, req, isEager)
	}
}

func (c *refController) issueWrite(b int, req writeReq, isEager bool) {
	bank := &c.banks[b]
	ratio, cancellable := c.writeClass(b, req, isEager)

	issueAt := max(bank.freeAt, req.enq)
	busStart := max(issueAt, c.busFreeAt)
	c.busFreeAt = busStart + c.p.TBurst
	tok := 0
	for i, free := range c.tokens {
		if free < c.tokens[tok] {
			tok = i
		}
	}
	pulseStart := max(busStart+c.p.TBurst, c.tokens[tok])
	done := pulseStart + c.twp(ratio)
	c.tokens[tok] = done
	bank.freeAt = done
	bank.op = refOp{req: req, pulseStart: pulseStart, done: done, ratio: ratio, cancellable: cancellable, token: tok}
	bank.opValid = true

	c.st.WearByBank[b] += c.wearPerWrite(ratio)
	c.st.TotalWear += c.wearPerWrite(ratio)
	c.st.WritesByRatio[ratio]++
	c.st.WritePulseCycles += c.twp(ratio)
	if isEager {
		c.st.EagerWrites++
	} else {
		c.st.DemandWrites++
	}
	switch {
	case c.forced && c.cfg.WearQuota:
		c.st.ForcedWrites++
		if isEager {
			c.st.EagerConversions++
		}
	case ratio == c.cfg.FastLatency && !isEager: //mctlint:ignore floateq verbatim copy of the pre-horizon provenance compare
		c.st.FastWrites++
	default:
		c.st.SlowWrites++
	}
}

func (c *refController) writeClass(b int, req writeReq, isEager bool) (ratio float64, cancellable bool) {
	if c.cfg.WearQuota && c.forced {
		return config.WearQuotaSlowRatio, int(req.cancels) < c.p.MaxCancellations
	}
	if isEager {
		return c.cfg.SlowLatency, c.cfg.SlowCancellation && int(req.cancels) < c.p.MaxCancellations
	}
	if c.cfg.BankAware && len(c.banks[b].writes) < c.cfg.BankAwareThreshold {
		return c.cfg.SlowLatency, c.cfg.SlowCancellation && int(req.cancels) < c.p.MaxCancellations
	}
	return c.cfg.FastLatency, c.cfg.FastCancellation && int(req.cancels) < c.p.MaxCancellations
}

func (c *refController) Read(addr uint64, now uint64) uint64 {
	c.Advance(now)
	b := c.bankOf(addr)
	bank := &c.banks[b]

	if op := &bank.op; bank.opValid && bank.freeAt > now && op.cancellable &&
		!c.drainMode && pulseProgress(op.pulseStart, op.done, now) < c.p.CancelProgressLimit {
		c.st.CancelledWrites++
		req := op.req
		req.cancels++
		req.enq = now
		bank.writes = append(bank.writes, writeReq{})
		copy(bank.writes[1:], bank.writes)
		bank.writes[0] = req
		c.writeQLen++
		c.updateDrainMode()
		if c.writeQLen > c.st.WriteQueuePeak {
			c.st.WriteQueuePeak = c.writeQLen
		}
		bank.freeAt = now + cancelAbortCycles
		if op.done == c.tokens[op.token] {
			c.tokens[op.token] = now
		}
		bank.opValid = false
	}

	start := max(now, bank.freeAt)
	row := c.rowOf(addr)
	cell := c.p.TRCD + c.p.TCAS
	if c.p.RowBytes > 0 && bank.rowValid && bank.openRow == row {
		cell = c.p.TCAS
		c.st.RowHits++
	} else {
		bank.openRow = row
		bank.rowValid = true
		c.st.RowMisses++
	}
	cellDone := start + cell
	bank.freeAt = cellDone
	bank.opValid = false
	busStart := max(cellDone, c.busFreeAt)
	c.busFreeAt = busStart + c.p.TBurst
	final := busStart + c.p.TBurst

	c.st.Reads++
	c.st.ReadLatencySum += final - now
	c.st.ReadCellCycles += cell
	return final
}

func (c *refController) Write(addr uint64, now uint64) uint64 {
	c.Advance(now)
	accepted := now
	if c.writeQLen >= c.p.WriteQueueCap {
		c.st.QueueFullStalls++
		accepted = c.drainUntilSpace(now)
	}
	b := c.bankOf(addr)
	c.banks[b].writes = append(c.banks[b].writes, writeReq{addr: addr, enq: accepted})
	c.writeQLen++
	depth := len(c.banks[b].writes)
	if depth > 16 {
		depth = 16
	}
	c.st.BankQueueDepth[depth]++
	c.updateDrainMode()
	if c.writeQLen > c.st.WriteQueuePeak {
		c.st.WriteQueuePeak = c.writeQLen
	}
	c.advanceBank(b, c.now)
	return accepted
}

func (c *refController) drainUntilSpace(now uint64) uint64 {
	for c.writeQLen >= c.p.WriteQueueCap {
		next := uint64(math.MaxUint64)
		for b := range c.banks {
			bank := &c.banks[b]
			if len(bank.writes) == 0 {
				continue
			}
			t := max(bank.freeAt, bank.writes[0].enq)
			if t < next {
				next = t
			}
		}
		if next == math.MaxUint64 {
			return now
		}
		if next <= c.now {
			next = c.now + 1
		}
		c.Advance(next)
		if next > now {
			now = next
		}
	}
	return now
}

func (c *refController) EagerWrite(addr uint64, now uint64) bool {
	c.Advance(now)
	if c.eagerQLen >= c.p.EagerQueueCap {
		return false
	}
	b := c.bankOf(addr)
	c.banks[b].eager = append(c.banks[b].eager, writeReq{addr: addr, enq: now, eager: true})
	c.eagerQLen++
	c.advanceBank(b, c.now)
	return true
}

func (c *refController) Drain(now uint64) uint64 {
	c.Advance(now)
	for c.writeQLen > 0 || c.eagerQLen > 0 {
		next := uint64(math.MaxUint64)
		for b := range c.banks {
			bank := &c.banks[b]
			if len(bank.writes) > 0 {
				t := max(bank.freeAt, bank.writes[0].enq)
				if t < next {
					next = t
				}
			}
			if len(bank.eager) > 0 && c.eagerAllowed() {
				t := max(bank.freeAt, bank.eager[0].enq)
				if t < next {
					next = t
				}
			}
		}
		if next == math.MaxUint64 {
			break
		}
		if next <= c.now {
			next = c.now + 1
		}
		c.Advance(next)
		now = next
	}
	return now
}

// trafficMix shapes the random traffic of one differential run.
type trafficMix struct {
	name   string
	params func() Params
	lines  int // distinct 64-byte lines touched: few lines means bank conflicts and cancels
	maxGap int // largest time step between calls
	// Op weights.
	reads, writes, eagers int
	// skew issues some calls behind the controller's clock, as the cores of
	// a multi-core machine do after another core stalled on backpressure.
	skew bool
}

func tightQueues() Params {
	p := smallParams()
	p.WriteQueueCap = 8
	p.DrainLow = 3
	p.DrainHigh = 6
	p.EagerQueueCap = 4
	return p
}

func bindingQuota() Params {
	p := smallParams()
	p.WearQuotaSliceCycles = 1500
	p.LinesPerBank = 1500
	return p
}

// withBanks returns the small parameters with n banks.
func withBanks(n int) func() Params {
	return func() Params {
		p := smallParams()
		p.Banks = n
		return p
	}
}

var trafficMixes = []trafficMix{
	{name: "mixed", params: smallParams, lines: 1 << 14, maxGap: 100, reads: 1, writes: 1, eagers: 1},
	{name: "cancel-heavy", params: smallParams, lines: 48, maxGap: 12, reads: 6, writes: 3, eagers: 2},
	{name: "queue-full-heavy", params: tightQueues, lines: 1 << 10, maxGap: 6, reads: 1, writes: 6, eagers: 3},
	{name: "eager-heavy", params: smallParams, lines: 256, maxGap: 30, reads: 2, writes: 1, eagers: 6},
	{name: "skewed", params: tightQueues, lines: 96, maxGap: 20, reads: 4, writes: 4, eagers: 2, skew: true},
	{name: "quota", params: bindingQuota, lines: 512, maxGap: 40, reads: 2, writes: 4, eagers: 2},
	// Bank counts other than the default 16: one bank (every write
	// conflicts), 32 (the multi-core machine) and 64, whose top bank is
	// bit 63 of the pending-bank mask.
	{name: "one-bank", params: withBanks(1), lines: 256, maxGap: 40, reads: 2, writes: 2, eagers: 2},
	{name: "32-banks", params: withBanks(32), lines: 1 << 12, maxGap: 10, reads: 2, writes: 3, eagers: 3, skew: true},
	{name: "64-banks", params: withBanks(64), lines: 1 << 14, maxGap: 6, reads: 1, writes: 3, eagers: 3},
}

// memCtl is the call surface shared by Controller and refController.
type memCtl interface {
	Read(addr, now uint64) uint64
	Write(addr, now uint64) uint64
	EagerWrite(addr, now uint64) bool
	Advance(t uint64)
	Drain(now uint64) uint64
	SetConfig(cfg config.Config) error
	Now() uint64
	WriteQueueLen() int
	EagerQueueLen() int
	Stats() Stats
	Snapshot() Snapshot
}

// agree reports the first way ctls[i] differs from ctls[0]. deep also
// compares Stats and Snapshot.
func agree(ctls []memCtl, deep bool) error {
	a := ctls[0]
	for i, b := range ctls[1:] {
		if a.Now() != b.Now() || a.WriteQueueLen() != b.WriteQueueLen() || a.EagerQueueLen() != b.EagerQueueLen() {
			return fmt.Errorf("controller %d: now/queues %d/%d/%d, want %d/%d/%d", i+1,
				b.Now(), b.WriteQueueLen(), b.EagerQueueLen(), a.Now(), a.WriteQueueLen(), a.EagerQueueLen())
		}
		if !deep {
			continue
		}
		if x, y := a.Stats(), b.Stats(); !reflect.DeepEqual(x, y) {
			return fmt.Errorf("controller %d: stats diverged\n got: %+v\nwant: %+v", i+1, y, x)
		}
		if x, y := a.Snapshot(), b.Snapshot(); !reflect.DeepEqual(x, y) {
			return fmt.Errorf("controller %d: snapshots diverged", i+1)
		}
	}
	return nil
}

// lockstep drives ctls with one random call sequence drawn from rng —
// reads, writes, eager writes, bare Advances, SetConfig switches to
// configurations from cfgs and mid-run Drains — starting at time now. It
// returns the final caller time, or an error at the first call whose
// return value or resulting queue state differs between controllers.
func lockstep(rng *rand.Rand, mix trafficMix, cfgs []config.Config, ops int, now uint64, ctls ...memCtl) (uint64, error) {
	total := mix.reads + mix.writes + mix.eagers
	for i := 0; i < ops; i++ {
		now += uint64(rng.Intn(mix.maxGap + 1))
		at := now
		if mix.skew && rng.Intn(3) == 0 {
			at -= uint64(rng.Intn(int(min(now, 400)) + 1))
		}
		addr := uint64(rng.Intn(mix.lines)) * 64
		var what string
		var results []uint64
		switch k := rng.Intn(total + 3); {
		case k < mix.reads:
			what = fmt.Sprintf("Read(%d, %d)", addr, at)
			for _, c := range ctls {
				results = append(results, c.Read(addr, at))
			}
			if results[0] < at {
				return 0, fmt.Errorf("op %d: %s = %d, before the read was issued", i, what, results[0])
			}
		case k < mix.reads+mix.writes:
			what = fmt.Sprintf("Write(%d, %d)", addr, at)
			for _, c := range ctls {
				results = append(results, c.Write(addr, at))
			}
			if results[0] < at {
				return 0, fmt.Errorf("op %d: %s = %d, accepted before it was offered", i, what, results[0])
			}
			// The writer stalls on backpressure.
			now = max(now, results[0])
		case k < total:
			what = fmt.Sprintf("EagerWrite(%d, %d)", addr, at)
			for _, c := range ctls {
				ok := uint64(0)
				if c.EagerWrite(addr, at) {
					ok = 1
				}
				results = append(results, ok)
			}
		case k == total:
			what = fmt.Sprintf("Advance(%d)", at)
			for _, c := range ctls {
				c.Advance(at)
			}
		case k == total+1:
			next := cfgs[rng.Intn(len(cfgs))]
			what = fmt.Sprintf("SetConfig(%+v)", next)
			if rng.Intn(8) == 0 {
				for _, c := range ctls {
					if err := c.SetConfig(next); err != nil {
						return 0, err
					}
				}
			}
		default:
			what = fmt.Sprintf("Drain(%d)", at)
			if rng.Intn(16) == 0 {
				for _, c := range ctls {
					results = append(results, c.Drain(at))
				}
				now = max(now, results[0])
			}
		}
		for j, r := range results {
			if r != results[0] {
				return 0, fmt.Errorf("op %d: %s = %d on controller %d, want %d", i, what, r, j, results[0])
			}
		}
		if err := agree(ctls, i%64 == 0); err != nil {
			return 0, fmt.Errorf("op %d, after %s: %w", i, what, err)
		}
	}
	return now, nil
}

// drainAll drains every controller from now and requires identical end
// times, Stats and Snapshots.
func drainAll(now uint64, ctls ...memCtl) error {
	end := ctls[0].Drain(now)
	for i, c := range ctls[1:] {
		if got := c.Drain(now); got != end {
			return fmt.Errorf("Drain(%d) = %d on controller %d, want %d", now, got, i+1, end)
		}
	}
	return agree(ctls, true)
}

func spaceWithQuota() []config.Config {
	return config.Enumerate(config.SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8})
}

// runDifferential drives the optimized controller and the tick-sweep
// reference in lockstep from a random configuration of the full space,
// drains both and checks the drained controller's invariants. It returns
// the first difference or violation.
func runDifferential(seed int64, mix trafficMix, ops int) error {
	rng := rand.New(rand.NewSource(seed))
	cfgs := spaceWithQuota()
	cfg := cfgs[rng.Intn(len(cfgs))]
	c, err := New(cfg, mix.params())
	if err != nil {
		return err
	}
	r, err := newRef(cfg, mix.params())
	if err != nil {
		return err
	}
	now, err := lockstep(rng, mix, cfgs, ops, 0, c, r)
	if err != nil {
		return err
	}
	if err := drainAll(now, c, r); err != nil {
		return err
	}
	return checkInvariants(c)
}

// checkDifferential runs runDifferential as a quick.Check property over
// seeds.
func checkDifferential(t *testing.T, mix trafficMix, ops, seeds int) {
	t.Helper()
	var failure error
	f := func(seed int64) bool {
		failure = runDifferential(seed, mix, ops)
		return failure == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: seeds}); err != nil {
		t.Fatalf("%s: %v\n%v", mix.name, err, failure)
	}
}

// TestDifferentialAgainstReference: under each stress mix (the plain mix
// is TestRandomTrafficInvariants') and random configurations from the full
// space, wear quota included, the event-horizon controller returns the
// same value from every call as the tick-sweep reference, and ends with
// identical Stats and Snapshot.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, mix := range trafficMixes[1:] {
		mix := mix
		t.Run(mix.name, func(t *testing.T) { checkDifferential(t, mix, 2000, 20) })
	}
}

// TestReferenceEagerUnlock pins the one schedule a due-only sweep gets
// wrong: a demand write issuing on a low bank empties the demand queue, and
// the same sweep must then issue an eager write waiting on a higher bank
// (whose bound was computed while eager writes were locked out). An eager
// write on a lower bank waits for the next Advance.
func TestReferenceEagerUnlock(t *testing.T) {
	lineOn := func(c *Controller, bank int) uint64 {
		for a := uint64(0); ; a += 64 {
			if c.bankOf(a) == bank {
				return a
			}
		}
	}
	for _, tc := range []struct {
		name                   string
		demandBank, eagerBank  int
		eagerAt200, eagerAt201 uint64
	}{
		{"eager-above", 2, 9, 1, 1},
		{"eager-below", 9, 2, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustNew(t, config.Default(), smallParams())
			r, err := newRef(config.Default(), smallParams())
			if err != nil {
				t.Fatal(err)
			}
			demand, eager := lineOn(c, tc.demandBank), lineOn(c, tc.eagerBank)
			for _, m := range []memCtl{c, r} {
				m.Write(demand, 100) // issues at once: the bank is busy until ~168
				m.Write(demand, 100) // queued behind it
				if !m.EagerWrite(eager, 101) {
					t.Fatal("eager queue refused a write")
				}
				m.Advance(200) // the queued demand write issues, emptying the demand queue
			}
			if got, want := c.Stats().EagerWrites, r.Stats().EagerWrites; got != want || got != tc.eagerAt200 {
				t.Fatalf("eager writes after Advance(200): %d, reference %d, want %d", got, want, tc.eagerAt200)
			}
			c.Advance(201)
			r.Advance(201)
			if got := c.Stats().EagerWrites; got != tc.eagerAt201 {
				t.Fatalf("eager writes after Advance(201): %d, want %d", got, tc.eagerAt201)
			}
			if a, b := c.Snapshot(), r.Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("snapshots diverged\n got: %+v\nwant: %+v", a, b)
			}
		})
	}
}

// TestReferenceEagerDirectIssueBehindClock: an eager write offered far
// behind the controller's clock onto an idle bank issues at once, and its
// pulse has already ended by the controller's time, so no cancellable op
// is left for a later read, as when the write was queued and the bank
// kicked.
func TestReferenceEagerDirectIssueBehindClock(t *testing.T) {
	cfg := config.StaticBaseline() // eager writes issue slow and cancellable
	c := mustNew(t, cfg, smallParams())
	r, err := newRef(cfg, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []memCtl{c, r} {
		m.Advance(1000)
		if !m.EagerWrite(0, 100) {
			t.Fatal("eager queue refused a write")
		}
		m.Read(0, 150) // behind the clock, while the pulse ran
	}
	if err := agree([]memCtl{c, r}, true); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.EagerWrites != 1 || st.CancelledWrites != 0 {
		t.Fatalf("eager writes %d, cancelled %d; want 1, 0", st.EagerWrites, st.CancelledWrites)
	}
}
