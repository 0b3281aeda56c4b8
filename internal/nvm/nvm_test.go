package nvm

import (
	"fmt"
	"math/rand"
	"testing"

	"mct/internal/config"
)

// smallParams returns fast-to-reason-about parameters: one write token and
// a relaxed quota so tests control exactly what happens.
func smallParams() Params {
	p := DefaultParams()
	p.MaxConcurrentWrites = 4
	return p
}

func mustNew(t testing.TB, cfg config.Config, p Params) *Controller {
	t.Helper()
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Banks = 0 },
		func(p *Params) { p.LinesPerBank = 0 },
		func(p *Params) { p.MemCyclesPerSec = 0 },
		func(p *Params) { p.EnduranceBase = 0 },
		func(p *Params) { p.WearLevelEff = 1.5 },
		func(p *Params) { p.WearCalibration = 0 },
		func(p *Params) { p.WriteQueueCap = 0 },
		func(p *Params) { p.DrainHigh = p.DrainLow - 1 },
		func(p *Params) { p.CancelProgressLimit = 2 },
		func(p *Params) { p.MaxConcurrentWrites = 0 },
		func(p *Params) { p.WearQuotaSliceCycles = 0 },
	}
	for i, mut := range bad {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate params", i)
		}
	}
}

// TestParamsValidateGeometry: bankOf and rowOf shift and mask, so the
// bank count must be a power of two no larger than the 64-bit pending-bank
// mask and the row size 0 or a power of two.
func TestParamsValidateGeometry(t *testing.T) {
	for _, tc := range []struct {
		banks    int
		rowBytes uint64
		ok       bool
	}{
		{1, 1024, true},
		{16, 1024, true},
		{32, 1024, true},
		{64, 1024, true},
		{16, 0, true},
		{12, 1024, false},
		{128, 1024, false},
		{16, 1000, false},
	} {
		p := DefaultParams()
		p.Banks, p.RowBytes = tc.banks, tc.rowBytes
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d banks, %d-byte rows: Validate() = %v, want ok=%v", tc.banks, tc.rowBytes, err, tc.ok)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(config.Config{FastLatency: 9}, DefaultParams()); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	p := DefaultParams()
	p.Banks = 0
	if _, err := New(config.Default(), p); err == nil {
		t.Fatal("invalid params must be rejected")
	}
}

func TestReadLatencyIdleBank(t *testing.T) {
	p := smallParams()
	c := mustNew(t, config.Default(), p)
	done := c.Read(0, 1000)
	want := uint64(1000) + p.TRCD + p.TCAS + p.TBurst
	if done != want {
		t.Fatalf("idle read done at %d, want %d", done, want)
	}
	st := c.Stats()
	if st.Reads != 1 || st.ReadLatencySum != p.TRCD+p.TCAS+p.TBurst {
		t.Fatalf("read stats wrong: %+v", st)
	}
}

func TestReadWaitsForUncancellableWrite(t *testing.T) {
	p := smallParams()
	c := mustNew(t, config.Default(), p) // no cancellation
	addr := uint64(0)
	c.Write(addr, 100)
	c.Advance(101) // issue the write
	st := c.Stats()
	if st.DemandWrites != 1 {
		t.Fatalf("write not issued: %+v", st)
	}
	// A read to the same bank mid-write must wait for the write.
	done := c.Read(addr, 120)
	writeDone := uint64(100) + p.TBurst + p.TWP // bus + 1× pulse
	if done < writeDone+p.TRCD+p.TCAS {
		t.Fatalf("read at %d finished before blocked bank freed (write done %d)", done, writeDone)
	}
	if c.Stats().CancelledWrites != 0 {
		t.Fatal("default config must not cancel")
	}
}

func TestReadCancelsCancellableWrite(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true
	c := mustNew(t, cfg, p)
	addr := uint64(0)
	c.Write(addr, 100)
	c.Advance(101)
	// Read arrives early in the pulse: must cancel and start promptly.
	done := c.Read(addr, 115)
	want := uint64(115) + cancelAbortCycles + p.TRCD + p.TCAS + p.TBurst
	if done != want {
		t.Fatalf("cancelling read done at %d, want %d", done, want)
	}
	st := c.Stats()
	if st.CancelledWrites != 1 {
		t.Fatalf("cancellations = %d, want 1", st.CancelledWrites)
	}
	// The cancelled write re-queues and eventually completes, charging
	// wear twice (the "extra writes" penalty).
	c.Drain(c.Now())
	if got := c.Stats().DemandWrites; got != 2 {
		t.Fatalf("demand write issues = %d, want 2 (original + re-issue)", got)
	}
}

func TestCancelRespectsProgressLimit(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true
	c := mustNew(t, cfg, p)
	c.Write(0, 100)
	c.Advance(101)
	// Pulse runs [108,168); at 160 progress is ~87% > 50%: no cancel.
	c.Read(0, 160)
	if c.Stats().CancelledWrites != 0 {
		t.Fatal("nearly-done write must not be cancelled")
	}
}

func TestMaxCancellationsBounded(t *testing.T) {
	p := smallParams()
	p.MaxCancellations = 2
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true
	c := mustNew(t, cfg, p)
	c.Write(0, 100)
	now := uint64(101)
	c.Advance(now)
	cancels := uint64(0)
	for i := 0; i < 10; i++ {
		before := c.Stats().CancelledWrites
		now = c.Read(0, now+2)
		if c.Stats().CancelledWrites > before {
			cancels++
		}
	}
	if got := c.Stats().CancelledWrites; got > 2 {
		t.Fatalf("write cancelled %d times, cap is 2", got)
	}
	_ = cancels
}

func TestWriteQueueBackpressure(t *testing.T) {
	p := smallParams()
	p.WriteQueueCap = 4
	p.DrainLow = 2
	p.DrainHigh = 4
	c := mustNew(t, config.Default(), p)
	// Flood writes at the same instant; acceptance must eventually move
	// forward in time.
	var accepted uint64
	for i := 0; i < 64; i++ {
		accepted = c.Write(uint64(i*64), 100)
	}
	if accepted <= 100 {
		t.Fatalf("expected backpressure, last accepted at %d", accepted)
	}
	if c.Stats().QueueFullStalls == 0 {
		t.Fatal("queue-full stalls not recorded")
	}
	if c.Stats().WriteQueuePeak > p.WriteQueueCap {
		t.Fatalf("queue peak %d exceeded capacity %d", c.Stats().WriteQueuePeak, p.WriteQueueCap)
	}
}

func TestDrainCompletesAllWrites(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		c.Write(uint64(rng.Intn(4096))*64, uint64(i))
	}
	for i := 0; i < 50; i++ {
		c.EagerWrite(uint64(rng.Intn(4096))*64, 200)
	}
	c.Drain(300)
	if c.WriteQueueLen() != 0 || c.EagerQueueLen() != 0 {
		t.Fatalf("drain left %d demand + %d eager writes", c.WriteQueueLen(), c.EagerQueueLen())
	}
}

func TestWearQuadraticInRatio(t *testing.T) {
	p := smallParams()
	// Two controllers, identical write streams at 1× and 2×.
	fast := mustNew(t, config.Default(), p)
	slowCfg := config.Default()
	slowCfg.FastLatency = 2.0
	slowCfg.SlowLatency = 2.0
	slow := mustNew(t, slowCfg, p)
	for i := 0; i < 100; i++ {
		fast.Write(uint64(i)*64, uint64(i)*100)
		slow.Write(uint64(i)*64, uint64(i)*100)
	}
	fast.Drain(1 << 30)
	slow.Drain(1 << 30)
	wf, ws := fast.Stats().TotalWear, slow.Stats().TotalWear
	if wf <= 0 || ws <= 0 {
		t.Fatal("no wear recorded")
	}
	ratio := wf / ws
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("wear ratio 1x/2x = %v, want ~4 (endurance ∝ ratio²)", ratio)
	}
}

func TestLifetimeScalesWithWriteRate(t *testing.T) {
	p := smallParams()
	a := mustNew(t, config.Default(), p)
	b := mustNew(t, config.Default(), p)
	// b writes twice as often over the same elapsed time.
	for i := 0; i < 100; i++ {
		a.Write(uint64(i)*64, uint64(i)*1000)
		b.Write(uint64(i)*64, uint64(i)*1000)
		b.Write(uint64(i+1000)*64, uint64(i)*1000+500)
	}
	elapsed := uint64(100 * 1000)
	a.Drain(elapsed)
	b.Drain(elapsed)
	la, lb := a.LifetimeYears(elapsed), b.LifetimeYears(elapsed)
	if la <= lb {
		t.Fatalf("lifetime must fall with write rate: %v vs %v", la, lb)
	}
}

func TestLifetimeNoWrites(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	if got := c.LifetimeYears(1000); got != 1000 {
		t.Fatalf("zero-write lifetime = %v, want cap 1000", got)
	}
}

func TestBankAwareIssuesSlowWhenIdle(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.BankAware = true
	cfg.BankAwareThreshold = 1
	cfg.FastLatency = 1.0
	cfg.SlowLatency = 3.0
	c := mustNew(t, cfg, p)
	// A single isolated write: bank queue is empty → slow write.
	c.Write(0, 100)
	c.Drain(1 << 30)
	st := c.Stats()
	if st.SlowWrites != 1 || st.FastWrites != 0 {
		t.Fatalf("isolated write must be slow: %+v", st)
	}
	if st.WritesByRatio[3.0] != 1 {
		t.Fatalf("ratio accounting wrong: %v", st.WritesByRatio)
	}
}

func TestBankAwareIssuesFastUnderPressure(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.BankAware = true
	cfg.BankAwareThreshold = 1
	cfg.SlowLatency = 3.0
	c := mustNew(t, cfg, p)
	// Many writes to one bank at the same time: the queue builds, so
	// later writes must issue fast.
	for i := 0; i < 16; i++ {
		c.Write(0, 100) // same address → same bank
	}
	c.Drain(1 << 30)
	st := c.Stats()
	if st.FastWrites == 0 {
		t.Fatalf("queued bank must trigger fast writes: %+v", st)
	}
}

func TestEagerQueueCapacity(t *testing.T) {
	p := smallParams()
	p.EagerQueueCap = 2
	cfg := config.Default()
	cfg.EagerWritebacks = true
	cfg.EagerThreshold = 8
	c := mustNew(t, cfg, p)
	if !c.EagerSpace() {
		t.Fatal("fresh controller must have eager space")
	}
	// Stuff the eager queue while the banks are still busy elsewhere.
	ok1 := c.EagerWrite(0, 1)
	ok2 := c.EagerWrite(64, 1)
	_ = ok1
	_ = ok2
	// Depending on immediate issue, space may already have freed; force a
	// state where the queue is full by blocking the bank with a write.
	c2 := mustNew(t, cfg, p)
	c2.Write(0, 0)
	c2.Advance(1) // bank busy with demand write
	if !c2.EagerWrite(0, 1) || !c2.EagerWrite(0, 1) {
		t.Fatal("eager enqueue should succeed up to capacity")
	}
	if c2.EagerWrite(0, 1) {
		t.Fatal("eager enqueue beyond capacity must fail")
	}
	if c2.EagerSpace() {
		t.Fatal("EagerSpace must report full")
	}
}

func TestWearQuotaForcesSlowWrites(t *testing.T) {
	p := smallParams()
	p.WearQuotaSliceCycles = 1000
	cfg := config.Default()
	cfg.WearQuota = true
	cfg.WearQuotaTarget = 10 // demanding target
	// Shrink the memory so the quota is immediately binding.
	p.LinesPerBank = 1000
	c := mustNew(t, cfg, p)
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		now += 50
		c.Write(uint64(i)*64, now)
	}
	c.Drain(now + 1_000_000)
	st := c.Stats()
	if st.ForcedWrites == 0 || st.ForcedSlices == 0 {
		t.Fatalf("wear quota never forced: %+v", st)
	}
	if st.WritesByRatio[config.WearQuotaSlowRatio] == 0 {
		t.Fatal("forced writes must use the 4x ratio")
	}
}

func TestWearQuotaImprovesLifetime(t *testing.T) {
	p := smallParams()
	p.WearQuotaSliceCycles = 1000
	p.LinesPerBank = 2000
	run := func(wq bool) float64 {
		cfg := config.Default()
		cfg.WearQuota = wq
		cfg.WearQuotaTarget = 10
		c := mustNew(t, cfg, p)
		now := uint64(0)
		for i := 0; i < 3000; i++ {
			now += 40
			c.Write(uint64(i%512)*64, now)
		}
		end := c.Drain(now + 1000)
		return c.LifetimeYears(end)
	}
	without := run(false)
	with := run(true)
	if with <= without {
		t.Fatalf("wear quota must extend lifetime: %v vs %v", with, without)
	}
}

func TestSetConfigPreservesState(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	c.Write(0, 100)
	c.Drain(1 << 20)
	wearBefore := c.Stats().TotalWear
	if err := c.SetConfig(config.StaticBaseline()); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TotalWear != wearBefore {
		t.Fatal("SetConfig must preserve wear state")
	}
	if c.Config().SlowLatency != 3.0 {
		t.Fatal("config not switched")
	}
	if err := c.SetConfig(config.Config{FastLatency: 99}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

func TestWritePowerTokensSerializeWrites(t *testing.T) {
	p := smallParams()
	p.MaxConcurrentWrites = 1 // one pulse at a time
	c := mustNew(t, config.Default(), p)
	// Two writes to different banks at t=0: with one token, the second
	// pulse cannot overlap the first.
	c.Write(0, 0)
	c.Write(64, 0) // different bank under the XOR hash (adjacent lines)
	c.Drain(1 << 30)
	st := c.Stats()
	if st.DemandWrites != 2 {
		t.Fatalf("writes issued: %+v", st)
	}
	// Compare with a 2-token controller: total completion must be later
	// with 1 token. Measure via bank busy horizon.
	p2 := smallParams()
	p2.MaxConcurrentWrites = 2
	c2 := mustNew(t, config.Default(), p2)
	c2.Write(0, 0)
	c2.Write(64, 0)
	end1 := maxBankFree(c)
	end2 := maxBankFree(c2)
	if end1 <= end2 {
		t.Fatalf("serialized writes must finish later: 1-token end %d vs 2-token end %d", end1, end2)
	}
}

func maxBankFree(c *Controller) uint64 {
	var m uint64
	for i := range c.banks {
		if c.banks[i].freeAt > m {
			m = c.banks[i].freeAt
		}
	}
	return m
}

func TestAdvanceMonotonic(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	c.Advance(1000)
	c.Advance(500) // must not rewind
	if c.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", c.Now())
	}
}

// Property: under random traffic (the plain mix of the differential
// tests), every read completes and every write is accepted no earlier
// than its caller's time, controller counters are consistent, and every
// call agrees with the tick-sweep reference (runDifferential).
func TestRandomTrafficInvariants(t *testing.T) {
	checkDifferential(t, trafficMixes[0], 1500, 25)
}

// checkInvariants checks a drained controller: queues empty and no bank
// pending, wear non-negative and conserved (TotalWear = Σ WearByBank),
// every issued write in the ratio histogram, and a positive lifetime.
func checkInvariants(c *Controller) error {
	st := c.Stats()
	if c.WriteQueueLen() != 0 || c.EagerQueueLen() != 0 {
		return fmt.Errorf("drain left %d demand + %d eager writes", c.WriteQueueLen(), c.EagerQueueLen())
	}
	if c.pend != 0 {
		return fmt.Errorf("drained controller still marks banks %#x pending", c.pend)
	}
	var sum float64
	for _, w := range st.WearByBank {
		if w < 0 {
			return fmt.Errorf("negative bank wear %v", w)
		}
		sum += w
	}
	if sum > 0 && (st.TotalWear <= 0 || st.TotalWear < sum*0.999 || st.TotalWear > sum*1.001) {
		return fmt.Errorf("total wear %v vs bank sum %v", st.TotalWear, sum)
	}
	var byRatio uint64
	for _, n := range st.WritesByRatio {
		byRatio += n
	}
	if byRatio != st.DemandWrites+st.EagerWrites {
		return fmt.Errorf("ratio histogram holds %d writes, issued %d", byRatio, st.DemandWrites+st.EagerWrites)
	}
	if c.LifetimeYears(c.Now()) <= 0 {
		return fmt.Errorf("non-positive lifetime")
	}
	return nil
}
