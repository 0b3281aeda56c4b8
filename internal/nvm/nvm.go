// Package nvm implements the resistive-memory main-memory system of the
// paper (Table 9): a 16-bank ReRAM controller with prioritized read / write
// / eager-write queues, write-drain thresholds, a shared data bus, the
// write-latency-vs-endurance trade-off (tWP = 60·ratio cycles, endurance =
// 8·10⁶·ratio² writes), write cancellation, bank-aware and eager mellow
// writes, the wear-quota lifetime guarantee, and bank-level wear accounting
// under a Start-Gap-style wear-leveling assumption (95% efficiency).
//
// The controller is trace-driven: the CPU/cache layer calls Read, Write and
// EagerWrite with a current time in memory-controller cycles (400 MHz), and
// the controller advances bank state lazily. Reads are serviced immediately
// with highest priority (the simulated core blocks on reads, so at most one
// demand read is outstanding per core); queued writes are issued
// opportunistically per bank and drained under backpressure.
package nvm

import (
	"fmt"
	"math"
	"math/bits"

	"mct/internal/config"
)

// SecondsPerYear converts lifetimes (Julian year, as in endurance
// literature).
const SecondsPerYear = 31_557_600.0

// cancelAbortCycles is the bank turnaround after a cancelled write before
// the cancelling read can start.
const cancelAbortCycles = 4

// Params holds the memory-system parameters (defaults follow Table 9).
type Params struct {
	Banks        int
	LinesPerBank uint64 // 64-byte lines per bank

	MemCyclesPerSec float64 // controller clock (400 MHz)

	TRCD   uint64 // row-to-column delay, cycles (48 = 120 ns)
	TCAS   uint64 // column access, cycles (1 = 2.5 ns)
	TBurst uint64 // data-bus occupancy per 64B transfer, cycles
	TWP    uint64 // write pulse at ratio 1.0, cycles (60 = 150 ns)

	// RowBytes is the row-buffer size (Table 9: 1 KB, open-page policy).
	// Reads to the open row skip tRCD; writes are write-through and bypass
	// the row buffer. 0 disables row buffers (every read pays tRCD).
	RowBytes uint64

	EnduranceBase float64 // writes per line at ratio 1.0 (8e6)
	WearLevelEff  float64 // wear-leveling efficiency (0.95)
	// WearCalibration scales the endurance budget to place default-config
	// lifetimes of the synthetic workloads in the paper's 1–16-year band
	// (our traces are far shorter and denser than 2B-instruction SPEC
	// runs). It multiplies EnduranceBase everywhere, so relative behaviour
	// between configurations is unaffected.
	WearCalibration float64

	WriteQueueCap int // demand write queue capacity (64)
	EagerQueueCap int // eager mellow write queue capacity (32)
	DrainLow      int // write drain low threshold (32)
	DrainHigh     int // write drain high threshold (64)

	// MaxCancellations bounds how often a single write can be cancelled
	// before it becomes non-cancellable (livelock guard).
	MaxCancellations int

	// CancelProgressLimit: a write can only be cancelled while its pulse
	// has completed less than this fraction (Qureshi et al. cancel only
	// writes far from completion; a nearly-done write is allowed to
	// finish).
	CancelProgressLimit float64

	// MaxConcurrentWrites bounds the number of simultaneous write pulses
	// across all banks — the write-power budget of resistive memories
	// (write currents are large; cf. Hay et al., "Preventing PCM banks
	// from seizing too much power", cited by the paper). This is what
	// makes slow writes consume real system capacity: long pulses hold a
	// power token longer, so aggressive mellow writes can saturate the
	// write bandwidth of heavy writers.
	MaxConcurrentWrites int

	// WearQuotaSliceCycles is the wear-quota time-slice length.
	WearQuotaSliceCycles uint64
}

// DefaultParams returns the Table 9 configuration (4 GB, 16 banks).
func DefaultParams() Params {
	return Params{
		Banks:                16,
		LinesPerBank:         4 << 30 / 16 / 64, // 4 GB / 16 banks / 64 B lines
		MemCyclesPerSec:      400e6,
		TRCD:                 48,
		TCAS:                 1,
		TBurst:               8,
		TWP:                  60,
		RowBytes:             1024,
		EnduranceBase:        8e6,
		WearLevelEff:         0.95,
		WearCalibration:      0.45,
		WriteQueueCap:        64,
		EagerQueueCap:        32,
		DrainLow:             32,
		DrainHigh:            64,
		MaxCancellations:     4,
		CancelProgressLimit:  0.5,
		MaxConcurrentWrites:  4,
		WearQuotaSliceCycles: 100_000,
	}
}

// maxBanks bounds the bank count: the controller tracks the banks with
// queued writes in one 64-bit mask.
const maxBanks = 64

// maxQueueSlots bounds the demand and eager queue capacities together. New
// allocates the queue arena up front, so parameters read back from a
// checkpoint must not be able to ask for an arbitrarily large one.
const maxQueueSlots = 1 << 16

// arenaSize is the most writes a controller can hold queued at once: a
// Write enqueues only below WriteQueueCap and an EagerWrite only below
// EagerQueueCap, but a cancelling Read requeues its bank's in-flight write
// without the capacity check. Each cancel consumes the op it requeues, and
// an op is issued either from the demand queue or, for eager writes, only
// while the demand queue is empty, so demand writes queued plus banks
// holding an op never exceed WriteQueueCap + Banks.
func (p Params) arenaSize() int {
	return p.WriteQueueCap + p.Banks + p.EagerQueueCap
}

// Validate checks parameter sanity. The bank count must be a power of two
// no larger than maxBanks and the row size 0 or a power of two, so that
// bankOf and rowOf map an address with a shift and a mask.
func (p Params) Validate() error {
	if p.Banks <= 0 || p.LinesPerBank == 0 {
		return fmt.Errorf("nvm: invalid geometry: %d banks, %d lines/bank", p.Banks, p.LinesPerBank)
	}
	if p.Banks > maxBanks || p.Banks&(p.Banks-1) != 0 {
		return fmt.Errorf("nvm: %d banks: want a power of two no larger than %d", p.Banks, maxBanks)
	}
	if p.RowBytes&(p.RowBytes-1) != 0 {
		return fmt.Errorf("nvm: row size %d bytes: want 0 or a power of two", p.RowBytes)
	}
	if p.MemCyclesPerSec <= 0 {
		return fmt.Errorf("nvm: invalid clock %g", p.MemCyclesPerSec)
	}
	if p.EnduranceBase <= 0 || p.WearLevelEff <= 0 || p.WearLevelEff > 1 || p.WearCalibration <= 0 {
		return fmt.Errorf("nvm: invalid endurance model (base %g, eff %g, cal %g)", p.EnduranceBase, p.WearLevelEff, p.WearCalibration)
	}
	if p.WriteQueueCap <= 0 || p.EagerQueueCap < 0 || p.DrainLow < 0 || p.DrainHigh < p.DrainLow {
		return fmt.Errorf("nvm: invalid queue parameters")
	}
	if p.WriteQueueCap > maxQueueSlots || p.EagerQueueCap > maxQueueSlots-p.WriteQueueCap {
		return fmt.Errorf("nvm: queue capacities %d+%d exceed %d", p.WriteQueueCap, p.EagerQueueCap, maxQueueSlots)
	}
	if p.MaxCancellations > math.MaxInt32 {
		return fmt.Errorf("nvm: MaxCancellations %d does not fit a write's int32 cancel count", p.MaxCancellations)
	}
	if p.CancelProgressLimit < 0 || p.CancelProgressLimit > 1 {
		return fmt.Errorf("nvm: cancel progress limit %g outside [0,1]", p.CancelProgressLimit)
	}
	if p.MaxConcurrentWrites <= 0 {
		return fmt.Errorf("nvm: MaxConcurrentWrites must be positive")
	}
	if p.WearQuotaSliceCycles == 0 {
		return fmt.Errorf("nvm: zero wear-quota slice")
	}
	return nil
}

// Stats aggregates controller event counters. Wear is measured in
// "line-lifetimes": a write at latency ratio r consumes
// 1/(EnduranceBase·Calibration·r²) of one line.
type Stats struct {
	Reads          uint64
	ReadLatencySum uint64 `obs:"read_latency_cycles"` // cycles, enqueue to data delivered

	DemandWrites    uint64 // demand writebacks completed or in flight
	EagerWrites     uint64 // eager mellow writes issued
	FastWrites      uint64 // issued at FastLatency
	SlowWrites      uint64 // issued at SlowLatency (incl. eager)
	ForcedWrites    uint64 // issued at 4× under an exhausted wear quota
	CancelledWrites uint64 // write attempts aborted by a read

	WritesByRatio RatioCounts

	WearByBank []float64
	TotalWear  float64

	ReadCellCycles   uint64 // bank occupancy by reads
	WritePulseCycles uint64 // bank occupancy by write pulses (incl. cancelled portion's full pulse charge)

	RowHits   uint64 // open-page read hits (tRCD skipped)
	RowMisses uint64 // row activations

	QueueFullStalls uint64 // demand writes that hit a full write queue
	WriteQueuePeak  int
	ForcedSlices    uint64 // wear-quota slices in forced (slow) mode
	TotalSlices     uint64

	// BankQueueDepth histograms the per-bank write-queue depth observed at
	// each demand-write enqueue (depth after the enqueue, clamped to 16).
	BankQueueDepth [17]uint64
	// EagerConversions counts eager mellow writes that an exhausted wear
	// quota forced to issue in the slowest (forced) class instead.
	EagerConversions uint64
}

// MaxBankWear returns the wear of the most-worn bank.
func (s *Stats) MaxBankWear() float64 {
	var m float64
	for _, w := range s.WearByBank {
		if w > m {
			m = w
		}
	}
	return m
}

// writeReq is one queued write. cancels is an int32 (Params.Validate
// bounds MaxCancellations to fit) so that the record packs into 24 bytes.
type writeReq struct {
	addr    uint64
	enq     uint64
	cancels int32
	eager   bool
}

// inflight is the write pulse occupying a bank: what Read's cancel path
// requeues and Snapshot emits. The pulse ends at the bank's freeAt, so it
// keeps no end time of its own.
type inflight struct {
	addr        uint64
	enq         uint64
	pulseStart  uint64
	ratio       float64
	token       int // write-power token held for the pulse duration
	cancels     int32
	eager       bool
	cancellable bool
}

// slot is one entry of a controller's queue arena: a queued write and the
// arena index of the entry behind it in its bank's queue, or of the next
// free slot.
type slot struct {
	req  writeReq
	next int32
}

// fifo is one bank queue: a list of arena slots threaded oldest first
// through slot.next. head and tail are meaningful only while n > 0.
type fifo struct {
	head, tail int32
	n          int32
}

type bankState struct {
	// freeAt and the queues, all the event-horizon walk reads of a bank,
	// lead: 32 bytes that share a cache line when the bank array is
	// line-aligned (a bank is 96 bytes).
	freeAt uint64
	writes fifo
	eager  fifo
	// op is the write occupying the bank until freeAt, valid only while
	// opValid is set. Held by value: issueWrite runs once per write on the
	// simulator's hot path, and a pointer here would heap-allocate every
	// in-flight record.
	opValid bool
	// openRow is the row held in the row buffer (open-page policy);
	// rowValid is false until the first activation.
	rowValid bool
	openRow  uint64
	op       inflight
}

// Controller is the NVM memory controller. It is not safe for concurrent
// use.
type Controller struct {
	p   Params
	cfg config.Config

	banks []bankState
	// arena holds every queued write of every bank, demand and eager, in
	// one allocation sized at New to the most a run can queue (see
	// arenaSize); free heads the list of unused slots.
	arena     []slot
	free      int32
	busFreeAt uint64
	// tokens[i] is the time write-power token i frees up.
	tokens []uint64
	now    uint64

	writeQLen int
	eagerQLen int
	// drainMode: the write queue crossed DrainHigh; writes get priority
	// (no cancellation) until occupancy falls to DrainLow.
	drainMode bool

	// wear quota state
	forced    bool
	nextSlice uint64

	// Address mapping derived from Params: a row is addr >> rowShift, and
	// a bank is the folded row hash & bankMask.
	rowShift uint
	bankMask uint64

	// Event horizon. pend has bit b set while bank b has a demand or eager
	// write queued (set at every enqueue, cleared by bankEvent once both
	// queues are empty); sweeps walk only those banks. For a pending bank,
	// ev[b] is a lower bound on the earliest time it can issue a write —
	// max(freeAt, head.enq) over its demand queue, and over its eager queue
	// while no demand write is queued — and nextEvent is a lower bound on
	// min ev. advanceBanks visits only banks whose bound has passed.
	// Anything that makes a bank issuable earlier (an enqueue, a cancel,
	// the demand queue emptying) lowers the bounds; raising freeAt leaves
	// them stale-low, which is safe. dpend has bit b set while bank b has
	// a demand write queued (set at every demand enqueue, cleared by
	// bankEvent once the demand queue is empty): while any demand write
	// waits, no other bank has a finite bound.
	pend      uint64
	dpend     uint64
	ev        []uint64
	nextEvent uint64
	// swept is the latest time at which a sweep covered every bank with
	// writes queued. The pre-horizon controller cleared the op of every
	// bank with freeAt ≤ swept; a bank the horizon skips keeps its opValid
	// flag, so readers treat an op with freeAt ≤ swept as gone.
	swept uint64

	// writesByClass counts issued writes per latency class (see writeClass)
	// since the last fold into st.WritesByRatio: a fixed counter bump on
	// the issue path instead of a map write.
	writesByClass [numClasses]uint64
	// classes holds each class's ratio, pulse length and wear per write
	// under the active config, computed once per New/SetConfig instead of
	// once per issued write.
	classes [numClasses]writeClassCost

	// members are configurations the controller stands for besides its
	// own (SetMembers); bit i of diverged flags members[i] once one of its
	// decisions differed from the active configuration's.
	members  []member
	diverged uint64

	st Stats
}

// member is a configuration that shares a controller's decisions while
// each one matches the active configuration's: its write costs are
// computed at SetMembers, like the active ones at SetConfig.
type member struct {
	cfg     config.Config
	classes [numClasses]writeClassCost
}

// MaxMembers bounds the members of a controller: one bit each in the
// Diverged mask.
const MaxMembers = 64

// Latency classes of an issued write. A live configuration issues writes at
// only these three ratios.
const (
	classFast  = iota // cfg.FastLatency
	classSlow         // cfg.SlowLatency
	classQuota        // config.WearQuotaSlowRatio
	numClasses
)

// writeClassCost is what issuing one write of a class costs.
type writeClassCost struct {
	ratio float64
	pulse uint64  // write pulse, cycles
	wear  float64 // line-lifetimes consumed
}

// New returns a controller for cfg with parameters p.
func New(cfg config.Config, p Params) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rowBytes := p.RowBytes
	if rowBytes == 0 {
		rowBytes = 1024
	}
	c := &Controller{
		p:        p,
		banks:    make([]bankState, p.Banks),
		arena:    make([]slot, p.arenaSize()),
		tokens:   make([]uint64, p.MaxConcurrentWrites),
		ev:       make([]uint64, p.Banks),
		rowShift: uint(bits.TrailingZeros64(rowBytes)),
		bankMask: uint64(p.Banks - 1),
	}
	for i := range c.arena {
		c.arena[i].next = int32(i + 1) //mctlint:ignore cyclecast Validate bounds the arena by maxQueueSlots + maxBanks
	}
	c.arena[len(c.arena)-1].next = -1
	c.setConfig(cfg)
	c.refreshEvents()
	c.nextSlice = p.WearQuotaSliceCycles
	c.st.WearByBank = make([]float64, p.Banks)
	c.st.WritesByRatio = make(RatioCounts)
	return c, nil
}

// Name identifies the controller as the terminal memory tier
// (hierarchy.Mem).
func (c *Controller) Name() string { return "nvm" }

// Config returns the controller's active configuration.
func (c *Controller) Config() config.Config { return c.cfg }

// SetConfig switches the controller to a new configuration at its current
// time. Queued requests, wear state and the wear-quota slice schedule are
// preserved — this is MCT's online reconfiguration mechanism (no hardware
// state is lost when the policy changes).
func (c *Controller) SetConfig(cfg config.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	// The class counters are relative to the outgoing ratios.
	c.foldWrites(c.st.WritesByRatio)
	c.writesByClass = [numClasses]uint64{}
	c.setConfig(cfg)
	if !c.cfg.WearQuota {
		c.forced = false
	}
	return nil
}

// setConfig installs a validated cfg and its per-class write costs.
func (c *Controller) setConfig(cfg config.Config) {
	c.cfg = cfg.Canonical()
	c.classes = c.classCosts(&c.cfg)
}

// classCosts returns each write class's ratio, pulse and wear under cfg.
func (c *Controller) classCosts(cfg *config.Config) [numClasses]writeClassCost {
	var costs [numClasses]writeClassCost
	for class := range costs {
		ratio := classRatio(cfg, class)
		costs[class] = writeClassCost{ratio: ratio, pulse: c.twp(ratio), wear: c.wearPerWrite(ratio)}
	}
	return costs
}

// SetMembers makes the controller stand for cfgs besides its own
// configuration, replacing any earlier members, and clears Diverged. At
// every decision that reads the configuration (a write issue's class,
// cancellability and counter, and a wear-quota slice boundary) it also
// takes each member's decision, and flags in Diverged the members whose
// outcome differs from the active configuration's. It never acts on a
// member's outcome, so while a member is unflagged the controller is in
// exactly the state it would be in under that member's configuration.
// The eager-harvest decision belongs to the caller. Clone and Snapshot
// drop the members.
func (c *Controller) SetMembers(cfgs []config.Config) error {
	if len(cfgs) > MaxMembers {
		return fmt.Errorf("nvm: %d members, at most %d", len(cfgs), MaxMembers)
	}
	c.members, c.diverged = nil, 0
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return err
		}
		mb := member{cfg: cfg.Canonical()}
		mb.classes = c.classCosts(&mb.cfg)
		c.members = append(c.members, mb)
	}
	return nil
}

// Diverged returns the members (bit i for the i-th configuration passed to
// SetMembers) that decided otherwise than the active configuration since
// SetMembers.
func (c *Controller) Diverged() uint64 { return c.diverged }

// EagerPolicy returns whether eager mellow writes are on and their
// threshold (0 when off), without copying the whole Config on the
// per-access path.
func (c *Controller) EagerPolicy() (on bool, threshold int) {
	return c.cfg.EagerWritebacks, c.cfg.EagerThreshold
}

// EagerSpace reports whether the eager queue can accept another entry.
// Callers must check this before harvesting a victim from the cache, since
// harvesting marks the line clean.
func (c *Controller) EagerSpace() bool { return c.eagerQLen < c.p.EagerQueueCap }

// Stats returns a snapshot of the counters. It does not mutate the
// controller, so a shared warm controller may be read concurrently.
func (c *Controller) Stats() Stats {
	s := c.st.Clone()
	c.foldWrites(s.WritesByRatio)
	return s
}

// classRatio is the latency ratio of a write class under cfg.
func classRatio(cfg *config.Config, class int) float64 {
	switch class {
	case classFast:
		return cfg.FastLatency
	case classSlow:
		return cfg.SlowLatency
	}
	return config.WearQuotaSlowRatio
}

// foldWrites adds the per-class write counts to byRatio, keyed by the
// active config's ratios. Only classes that issued create a key, as the
// per-write map increment did.
func (c *Controller) foldWrites(byRatio RatioCounts) {
	for class, n := range c.writesByClass {
		if n > 0 {
			byRatio[c.classes[class].ratio] += n
		}
	}
}

// rowOf returns the global row index of an address (rows are the
// interleaving unit: the 16 lines of one 1 KB row live in one bank, so
// open-page locality works). RowBytes 0 maps rows of 1 KB.
func (c *Controller) rowOf(addr uint64) uint64 {
	return addr >> c.rowShift
}

// bankOf maps an address to a bank with an XOR-folded hash of its row
// index. Folding higher bits in decorrelates bank index from cache set
// index, so a victim writeback and its fill do not systematically collide
// on one bank — the standard bank-XOR interleaving of memory controllers —
// while consecutive rows still spread round-robin across banks.
func (c *Controller) bankOf(addr uint64) int {
	row := c.rowOf(addr)
	h := row ^ (row >> 4) ^ (row >> 8) ^ (row >> 12) ^ (row >> 16)
	return int(h & c.bankMask) //mctlint:ignore cyclecast masked to the bank count
}

// wearPerWrite returns the line-lifetime fraction consumed by one write at
// latency ratio r (endurance scales quadratically with the ratio, Table 9).
func (c *Controller) wearPerWrite(ratio float64) float64 {
	return 1.0 / (c.p.EnduranceBase * c.p.WearCalibration * ratio * ratio)
}

func (c *Controller) twp(ratio float64) uint64 {
	return uint64(math.Round(float64(c.p.TWP) * ratio))
}

// bankWearBudget is the total wear a bank tolerates before the memory is
// considered worn out, under the wear-leveling efficiency assumption.
func (p Params) bankWearBudget() float64 {
	return float64(p.LinesPerBank) * p.WearLevelEff
}

// WearBudget exposes the per-bank wear budget so observers can normalize
// wear distributions against end-of-life.
func (c *Controller) WearBudget() float64 { return c.p.bankWearBudget() }

// LifetimeYears projects the memory lifetime assuming the observed wear
// rate continues ("the system will cyclically execute the current workload
// until the main memory wears out", §6.1): seconds of simulated time wore
// the most-worn bank by maxWear. Lifetimes are capped at 1000 years to keep
// zero-write runs finite.
func (p Params) LifetimeYears(seconds, maxWear float64) float64 {
	if maxWear <= 0 || seconds <= 0 {
		return 1000
	}
	years := seconds * p.bankWearBudget() / maxWear / SecondsPerYear
	if years > 1000 {
		return 1000
	}
	return years
}

// Advance processes queued work on all banks up to time t, honouring
// wear-quota slice boundaries.
func (c *Controller) Advance(t uint64) {
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
	} else if c.members != nil && c.nextSlice <= t {
		// A member with the wear quota on would run a slice here.
		for i := range c.members {
			if c.members[i].cfg.WearQuota {
				c.diverged |= 1 << uint(i)
			}
		}
	}
	c.advanceBanks(t)
	c.now = t
}

// updateWearQuota re-evaluates the forced-slow flag at a slice boundary.
// A member diverges there unless it runs slices too and sets the same
// flag.
func (c *Controller) updateWearQuota(atCycles uint64) {
	c.st.TotalSlices++
	maxWear := c.st.MaxBankWear()
	c.forced = c.quotaForced(&c.cfg, atCycles, maxWear)
	if c.forced {
		c.st.ForcedSlices++
	}
	for i := range c.members {
		if mb := &c.members[i]; !mb.cfg.WearQuota || c.quotaForced(&mb.cfg, atCycles, maxWear) != c.forced {
			c.diverged |= 1 << uint(i)
		}
	}
}

// quotaForced reports whether cfg's wear quota forces slow writes for the
// slice starting at atCycles: whether the most-worn bank's wear, maxWear,
// has reached its pro-rata share of the budget implied by the target
// lifetime.
func (c *Controller) quotaForced(cfg *config.Config, atCycles uint64, maxWear float64) bool {
	targetCycles := cfg.WearQuotaTarget * SecondsPerYear * c.p.MemCyclesPerSec
	allowance := float64(atCycles) / targetCycles * c.p.bankWearBudget()
	return maxWear >= allowance
}

// advanceBanks issues every write due by t, visiting banks in index order
// as a sweep over all banks would, but calling advanceBank only on banks
// with writes queued (pend) whose event bound has passed. A bank with empty
// queues or with ev[b] > t has nothing it could issue, so skipping it
// leaves the issue order, bus and power-token timing unchanged; the only
// trace of the skipped visit is an uncleared op marker, which swept masks.
//
// The exception is a demand-queue pop that empties the queue while eager
// writes wait: the sweep issues eager writes on every later bank, whose
// bounds were computed without their eager queues, so from that bank on
// every pending bank is visited, and afterwards every bound is recomputed
// (earlier banks' eager writes become due at the next Advance).
//
// A first pass, free of branches, marks the due banks and takes the
// horizon over the others; the second visits the due banks in index order.
func (c *Controller) advanceBanks(t uint64) {
	if c.writeQLen == 0 && c.eagerQLen == 0 {
		return
	}
	c.swept = t
	if t < c.nextEvent {
		return
	}
	// With a demand write queued, eager-only banks cannot issue, and
	// skipping one leaves only its op marker, which swept masks.
	scan := c.pend
	if c.writeQLen > 0 {
		scan = c.dpend
	}
	var due uint64
	next := uint64(math.MaxUint64)
	for m := scan; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		e := c.ev[b]
		_, later := bits.Sub64(t, e, 0) // 1 when e > t, else 0
		due |= (later ^ 1) << uint(b)
		next = min(next, e|(later-1)) // a due bank counts after its visit
	}
	// advanceBank only pops, so banks leave pend during the walk and none
	// join it.
	locked := c.writeQLen > 0
	unlocked := false
	for m := due; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		c.advanceBank(b, t)
		e := c.bankEvent(b)
		c.ev[b] = e
		next = min(next, e)
		if !unlocked && c.eagerUnlocked(locked) {
			// Every pending bank above b is visited too.
			unlocked = true
			m |= c.pend &^ (2<<uint(b) - 1)
		}
	}
	if unlocked {
		c.refreshEvents()
		return
	}
	c.nextEvent = next
}

// eagerUnlocked reports whether the demand queue, non-empty when locked
// was taken, has since emptied while eager writes wait: every bank's eager
// queue has become issuable, which no bound computed before accounts for.
func (c *Controller) eagerUnlocked(locked bool) bool {
	return locked && c.writeQLen == 0 && c.eagerQLen > 0
}

// bankEvent returns the earliest time bank b can issue, given its queues
// and the current demand-queue occupancy (MaxUint64 if it has nothing it
// may issue). A bank whose queues are both empty leaves pend.
func (c *Controller) bankEvent(b int) uint64 {
	bank := &c.banks[b]
	if bank.writes.n == 0 {
		c.dpend &^= 1 << uint(b)
		if bank.eager.n == 0 {
			c.pend &^= 1 << uint(b)
			return math.MaxUint64
		}
	}
	e := uint64(math.MaxUint64)
	if bank.writes.n > 0 {
		e = max(bank.freeAt, c.front(bank.writes).enq)
	}
	if bank.eager.n > 0 && c.eagerAllowed() {
		e = min(e, max(bank.freeAt, c.front(bank.eager).enq))
	}
	return e
}

// refreshEvents recomputes every pending bank's bound and the horizon
// exactly. Banks outside pend have nothing queued; their ev is not read.
func (c *Controller) refreshEvents() {
	c.nextEvent = math.MaxUint64
	for m := c.pend; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		c.ev[b] = c.bankEvent(b)
		if c.ev[b] < c.nextEvent {
			c.nextEvent = c.ev[b]
		}
	}
}

// noteBank recomputes bank b's bound after its queue or freeAt changed
// outside a sweep, lowering the horizon if needed.
func (c *Controller) noteBank(b int) {
	e := c.bankEvent(b)
	c.ev[b] = e
	if e < c.nextEvent {
		c.nextEvent = e
	}
}

// kickBank gives bank b a chance to issue at the controller's time right
// after an enqueue. If that empties the demand queue while eager writes
// wait, every bank's eager queue becomes issuable and all bounds are
// recomputed.
func (c *Controller) kickBank(b int) {
	locked := c.writeQLen > 0
	c.advanceBank(b, c.now)
	if c.eagerUnlocked(locked) {
		c.refreshEvents()
		return
	}
	c.noteBank(b)
}

// eagerAllowed reports whether the system is calm enough to issue eager
// (lowest-priority) writes: no demand writes waiting anywhere — eager
// pulses hold write-power tokens, so issuing them under demand-write
// pressure would invert priorities.
func (c *Controller) eagerAllowed() bool {
	return c.writeQLen == 0
}

// front returns the oldest write of a non-empty queue.
func (c *Controller) front(q fifo) *writeReq {
	return &c.arena[q.head].req
}

// take claims a free arena slot for r. arenaSize bounds what a run can
// queue, and FromSnapshot what a checkpoint can, so a slot is always free.
func (c *Controller) take(r writeReq) int32 {
	i := c.free
	c.free = c.arena[i].next
	c.arena[i] = slot{req: r, next: -1}
	return i
}

// pushBack appends r to q.
func (c *Controller) pushBack(q *fifo, r writeReq) {
	i := c.take(r)
	if q.n == 0 {
		q.head = i
	} else {
		c.arena[q.tail].next = i
	}
	q.tail = i
	q.n++
}

// pushFront puts r at the head of q, ahead of every queued write.
func (c *Controller) pushFront(q *fifo, r writeReq) {
	i := c.take(r)
	if q.n == 0 {
		q.tail = i
	} else {
		c.arena[i].next = q.head
	}
	q.head = i
	q.n++
}

// popFront removes and returns the oldest write of a non-empty queue and
// frees its slot.
func (c *Controller) popFront(q *fifo) writeReq {
	i := q.head
	s := &c.arena[i]
	q.head = s.next
	q.n--
	s.next = c.free
	c.free = i
	return s.req
}

func (c *Controller) advanceBank(b int, t uint64) {
	bank := &c.banks[b]
	for {
		if bank.freeAt > t {
			return
		}
		bank.opValid = false // any prior op has completed by freeAt ≤ t

		var req writeReq
		var isEager bool
		switch {
		case bank.writes.n > 0 && c.front(bank.writes).enq <= t:
			req = c.popFront(&bank.writes)
			c.writeQLen--
			c.updateDrainMode()
		case bank.eager.n > 0 && c.front(bank.eager).enq <= t && c.eagerAllowed():
			req = c.popFront(&bank.eager)
			c.eagerQLen--
			isEager = true
		default:
			return
		}
		c.issueWrite(b, req, isEager)
	}
}

// issueWrite starts a write on bank b. Timing: the data bus is occupied for
// TBurst, then the write pulse holds the bank for TWP·ratio.
func (c *Controller) issueWrite(b int, req writeReq, isEager bool) {
	bank := &c.banks[b]
	class, cancellable := c.writeClass(&c.cfg, b, req, isEager)
	cost := &c.classes[class]
	ratio, pulse := cost.ratio, cost.pulse

	issueAt := max(bank.freeAt, req.enq)
	busStart := max(issueAt, c.busFreeAt)
	c.busFreeAt = busStart + c.p.TBurst
	// The write pulse needs a free power token (the first one to free
	// up); long (slow) pulses hold tokens longer, so mellow writes consume
	// more of the write-power budget.
	tok, tokFree := 0, c.tokens[0]
	for i, free := range c.tokens {
		if free < tokFree {
			tok, tokFree = i, free
		}
	}
	pulseStart := max(busStart+c.p.TBurst, tokFree)
	done := pulseStart + pulse
	c.tokens[tok] = done
	bank.freeAt = done
	// Field by field: a composite literal here is built on the stack and
	// then copied, which costs more than the stores themselves.
	op := &bank.op
	op.addr, op.enq, op.pulseStart, op.ratio = req.addr, req.enq, pulseStart, ratio
	op.token, op.cancels, op.eager, op.cancellable = tok, req.cancels, req.eager, cancellable
	bank.opValid = true

	// Accounting. Wear and energy are charged per attempt: a cancelled
	// attempt costs a full write of wear (the "extra writes" lifetime
	// penalty of cancellation, §2) and its rewrite is charged again on
	// reissue.
	wear := cost.wear
	c.st.WearByBank[b] += wear
	c.st.TotalWear += wear
	c.writesByClass[class]++
	c.st.WritePulseCycles += pulse
	if isEager {
		c.st.EagerWrites++
	} else {
		c.st.DemandWrites++
	}
	counter := c.writeCounter(&c.cfg, ratio, isEager)
	switch counter {
	case countForced:
		c.st.ForcedWrites++
		if isEager {
			c.st.EagerConversions++
		}
	case countFast:
		c.st.FastWrites++
	default:
		c.st.SlowWrites++
	}
	if c.members != nil {
		c.checkIssue(b, req, isEager, ratio, cancellable, counter)
	}
}

// checkIssue flags the members that would issue the write at another ratio
// (so another pulse and wear), cancellability or counter. Equal ratios
// also keep Stats' WritesByRatio equal, whichever class each counts in.
func (c *Controller) checkIssue(b int, req writeReq, isEager bool, ratio float64, cancellable bool, counter int) {
	for i := range c.members {
		mb := &c.members[i]
		class, canc := c.writeClass(&mb.cfg, b, req, isEager)
		r := mb.classes[class].ratio
		if math.Float64bits(r) != math.Float64bits(ratio) || canc != cancellable || c.writeCounter(&mb.cfg, r, isEager) != counter {
			c.diverged |= 1 << uint(i)
		}
	}
}

// The Stats counter an issued write bumps.
const (
	countFast   = iota // FastWrites
	countSlow          // SlowWrites
	countForced        // ForcedWrites (and EagerConversions for an eager write)
)

// writeCounter returns the counter a write issued at ratio under cfg bumps.
func (c *Controller) writeCounter(cfg *config.Config, ratio float64, isEager bool) int {
	switch {
	case c.forced && cfg.WearQuota:
		return countForced
	case ratio == cfg.FastLatency && !isEager: //mctlint:ignore floateq ratio is assigned verbatim from cfg.FastLatency/SlowLatency; provenance compare is exact
		return countFast
	}
	return countSlow
}

// writeClass decides the latency class and cancellability under cfg of a
// write about to issue on bank b (the request has already been popped from
// its queue).
func (c *Controller) writeClass(cfg *config.Config, b int, req writeReq, isEager bool) (class int, cancellable bool) {
	retry := int(req.cancels) < c.p.MaxCancellations
	if cfg.WearQuota && c.forced {
		// Exhausted quota: "the whole coming time slice can only use the
		// slowest writes and write cancellation is enforced" (§3.1).
		return classQuota, retry
	}
	if isEager {
		return classSlow, cfg.SlowCancellation && retry
	}
	if cfg.BankAware && int(c.banks[b].writes.n) < cfg.BankAwareThreshold {
		// Bank not busy: issue slow.
		return classSlow, cfg.SlowCancellation && retry
	}
	return classFast, cfg.FastCancellation && retry
}

// Read services a demand read at time now and returns the cycle at which
// its data has been delivered over the bus. Reads have highest priority: an
// in-flight cancellable write on the target bank is aborted and re-queued
// at the head of that bank's write queue.
func (c *Controller) Read(addr uint64, now uint64) uint64 {
	c.Advance(now)
	b := c.bankOf(addr)
	bank := &c.banks[b]

	if op := &bank.op; bank.opValid && bank.freeAt > max(now, c.swept) && op.cancellable &&
		!c.drainMode && pulseProgress(op.pulseStart, bank.freeAt, now) < c.p.CancelProgressLimit {
		// Cancel the write in progress; it re-queues at the head. The read
		// pays a small abort turnaround before the bank is usable.
		c.st.CancelledWrites++
		done := bank.freeAt
		c.pushFront(&bank.writes, writeReq{addr: op.addr, enq: now, cancels: op.cancels + 1, eager: op.eager})
		c.pend |= 1 << uint(b)
		c.dpend |= 1 << uint(b)
		c.writeQLen++
		c.updateDrainMode()
		if c.writeQLen > c.st.WriteQueuePeak {
			c.st.WriteQueuePeak = c.writeQLen
		}
		bank.freeAt = now + cancelAbortCycles
		c.noteBank(b)
		// Release the power token held by the aborted pulse.
		if done == c.tokens[op.token] {
			c.tokens[op.token] = now
		}
		bank.opValid = false
	}

	start := max(now, bank.freeAt)
	row := c.rowOf(addr)
	cell := c.p.TRCD + c.p.TCAS
	if c.p.RowBytes > 0 && bank.rowValid && bank.openRow == row {
		// Open-page hit: the row is already in the row buffer.
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

// Write enqueues a demand writeback at time now. If the write queue is
// full, the controller drains until a slot frees (backpressure) and returns
// the cycle at which the write was accepted; otherwise it returns now.
func (c *Controller) Write(addr uint64, now uint64) uint64 {
	c.Advance(now)
	accepted := now
	if c.writeQLen >= c.p.WriteQueueCap {
		c.st.QueueFullStalls++
		accepted = c.drainUntilSpace(now)
	}
	b := c.bankOf(addr)
	q := &c.banks[b].writes
	c.pushBack(q, writeReq{addr: addr, enq: accepted})
	c.pend |= 1 << uint(b)
	c.dpend |= 1 << uint(b)
	c.writeQLen++
	c.st.BankQueueDepth[min(q.n, 16)]++
	c.updateDrainMode()
	if c.writeQLen > c.st.WriteQueuePeak {
		c.st.WriteQueuePeak = c.writeQLen
	}
	// Give the controller a chance to issue immediately (idle bank).
	c.kickBank(b)
	return accepted
}

// drainUntilSpace advances simulated time until a queued write issues,
// freeing a write-queue slot, and returns that time.
func (c *Controller) drainUntilSpace(now uint64) uint64 {
	for c.writeQLen >= c.p.WriteQueueCap {
		// With the demand queue full no eager write may issue, so the
		// horizon is the earliest demand issue time.
		c.refreshEvents()
		next := c.nextEvent
		if next == math.MaxUint64 {
			// No queued writes anywhere yet the queue count says full —
			// impossible by construction; bail out defensively.
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

// EagerWrite offers an eager mellow writeback at time now. It returns false
// when the eager queue is full (the cache keeps the line dirty and may
// offer it again later).
func (c *Controller) EagerWrite(addr uint64, now uint64) bool {
	c.Advance(now)
	if c.eagerQLen >= c.p.EagerQueueCap {
		return false
	}
	b := c.bankOf(addr)
	req := writeReq{addr: addr, enq: now, eager: true}
	bank := &c.banks[b]
	if bank.freeAt <= c.now && c.eagerAllowed() && bank.writes.n == 0 && bank.eager.n == 0 {
		// An idle bank with nothing queued and no demand write waiting:
		// issue at once, as enqueueing and kicking the bank would, without
		// touching the queue, pend or any bound (no demand queue changes,
		// so nothing unlocks). A write offered behind the clock may end
		// its pulse by c.now; the kick's next loop turn cleared that op.
		c.issueWrite(b, req, true)
		if bank.freeAt <= c.now {
			bank.opValid = false
		}
		return true
	}
	c.pushBack(&bank.eager, req)
	c.pend |= 1 << uint(b)
	c.eagerQLen++
	c.kickBank(b)
	return true
}

// Drain advances time until all queued demand and eager writes have issued,
// returning the final time. Used at end of simulation so queued work is
// charged.
func (c *Controller) Drain(now uint64) uint64 {
	c.Advance(now)
	for c.writeQLen > 0 || c.eagerQLen > 0 {
		c.refreshEvents()
		next := c.nextEvent
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

// pulseProgress returns the completed fraction at time now of a write pulse
// running from start to done (0 while the data is still on the bus).
func pulseProgress(start, done, now uint64) float64 {
	if now <= start {
		return 0
	}
	total := done - start
	if total == 0 {
		return 1
	}
	return float64(now-start) / float64(total)
}

// updateDrainMode re-evaluates drain mode against the watermarks.
func (c *Controller) updateDrainMode() {
	if c.writeQLen >= c.p.DrainHigh {
		c.drainMode = true
	} else if c.writeQLen <= c.p.DrainLow {
		c.drainMode = false
	}
}
