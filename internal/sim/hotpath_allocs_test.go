// Allocation gates of the streaming inner loop: once warm, the step loop
// allocates nothing per access. The only allocation sites Machine.step
// reaches are the NVM controller's amortized queue appends, which reuse
// their capacity at steady state.
package sim

import (
	"testing"

	"mct/internal/config"
	"mct/internal/trace"
)

func BenchmarkMachineStep(b *testing.B) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	m.RunAccesses(10000) // warm the caches and queue capacities
	b.ReportAllocs()
	b.ResetTimer()
	m.RunAccesses(b.N)
}

// BenchmarkBatchedStepLoop measures the pure streaming inner loop — Fill a
// reusable batch from the generator, StepBatch it through the machine —
// with no window accounting. This is the loop long streaming runs spend
// their lives in; TestBatchedStepLoopZeroAllocs pins it at exactly 0
// allocs/op, and `make bench-smoke` reports its per-access cost.
func BenchmarkBatchedStepLoop(b *testing.B) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	m.RunAccesses(100_000) // steady state: caches warm, queue capacities amortized
	buf := m.batchBuf()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := len(buf)
		if rem := b.N - done; k > rem {
			k = rem
		}
		m.cores[0].gen.Fill(buf[:k])
		m.StepBatch(buf[:k])
		done += k
	}
}

// TestBatchedStepLoopZeroAllocs: the steady-state batched step loop must
// allocate nothing at all — not amortized-little, zero. The reusable batch
// buffer is filled in place and every queue has reached its amortized
// capacity, so any allocation here is a regression in the streaming hot
// path (the per-access cost that multi-billion-access runs multiply). The
// 4-core mix1 machine's per-access scheduler loop must allocate nothing
// either.
func TestBatchedStepLoopZeroAllocs(t *testing.T) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.RunAccesses(100_000)
	buf := m.batchBuf()
	avg := testing.AllocsPerRun(10, func() {
		m.cores[0].gen.Fill(buf)
		m.StepBatch(buf)
	})
	if avg != 0 {
		t.Errorf("steady-state batched step loop allocates %.2f objects per %d-access batch, want exactly 0", avg, len(buf))
	}

	// The multi-core scheduler loop (least-advanced core steps next, one
	// access at a time) is held to the same zero.
	specs, err := trace.MixByName("mix1")
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewMultiMachine(specs, config.StaticBaseline(), DefaultMultiOptions())
	if err != nil {
		t.Fatal(err)
	}
	mm.runOwn(400_000)
	avg = testing.AllocsPerRun(10, func() { mm.runOwn(StepBatchSize) })
	if avg != 0 {
		t.Errorf("steady-state 4-core step loop allocates %.2f objects per %d accesses, want exactly 0", avg, StepBatchSize)
	}
}

// BenchmarkTieredBatchedStepLoop is the hybrid-pipeline twin of
// BenchmarkBatchedStepLoop: the same streaming inner loop with the DRAM
// cache tier interposed, so `make bench-smoke` reports the tier's
// per-access cost next to the stock pipeline's.
func BenchmarkTieredBatchedStepLoop(b *testing.B) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Tiers = config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: 1}
	m, err := NewMachine(spec, config.Default(), opt)
	if err != nil {
		b.Fatal(err)
	}
	m.RunAccesses(100_000)
	buf := m.batchBuf()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := len(buf)
		if rem := b.N - done; k > rem {
			k = rem
		}
		m.cores[0].gen.Fill(buf[:k])
		m.StepBatch(buf[:k])
		done += k
	}
}

// TestTieredBatchedStepLoopZeroAllocs pins the same exactly-0 gate on the
// hybrid DRAM–NVM pipeline: the tier seam is interface dispatch (no
// boxing), and every dram.Cache method is allocation-free by construction
// (flat SoA lanes, no maps), so inserting the tier must not cost a single
// object on the streaming hot path.
func TestTieredBatchedStepLoopZeroAllocs(t *testing.T) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Tiers = config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: 1}
	m, err := NewMachine(spec, config.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m.RunAccesses(100_000)
	if st := m.dramStats(); st.Hits+st.Misses == 0 {
		t.Fatal("tiered warmup drove no DRAM traffic; the gate exercises nothing")
	}
	buf := m.batchBuf()
	avg := testing.AllocsPerRun(10, func() {
		m.cores[0].gen.Fill(buf)
		m.StepBatch(buf)
	})
	if avg != 0 {
		t.Errorf("tiered steady-state batched step loop allocates %.2f objects per %d-access batch, want exactly 0", avg, len(buf))
	}
}

// TestStepSteadyStateAllocs: a warmed machine runs thousands of accesses,
// window accounting included, with a per-access allocation budget far
// below one. The bound is loose (windowMetrics itself allocates its result
// maps once per RunAccesses call) but fails loudly if a per-access
// allocation sneaks into the hot path.
func TestStepSteadyStateAllocs(t *testing.T) {
	spec, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, config.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.RunAccesses(20000) // warm: queue capacities reach steady state

	const accesses = 2000
	avg := testing.AllocsPerRun(5, func() {
		m.RunAccesses(accesses)
	})
	// windowMetrics allocates a bounded handful of objects per call; the
	// budget of 0.05 allocs/access (100 per window) leaves room for that
	// plus rare amortized queue growth, and nothing else.
	if perAccess := avg / accesses; perAccess > 0.05 {
		t.Errorf("hot path allocates %.4f objects per access (%.0f per %d-access window); "+
			"only the amortized NVM queue appends may allocate, and only while a queue grows", perAccess, avg, accesses)
	}
}
