package config

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultAndBaselineValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if err := StaticBaseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	b := StaticBaseline()
	if !b.BankAware || !b.EagerWritebacks || !b.WearQuota || b.SlowLatency != 3.0 {
		t.Fatalf("baseline fields wrong: %+v", b)
	}
}

func TestValidateRejectsIllegal(t *testing.T) {
	cases := []Config{
		{FastLatency: 0.5}, // fast too low
		{FastLatency: 5},   // fast too high
		{FastLatency: 2, SlowLatency: 1, BankAware: true, BankAwareThreshold: 1},                         // slow < fast
		{FastLatency: 1, SlowLatency: 2, BankAware: true, BankAwareThreshold: 9},                         // threshold range
		{FastLatency: 1, SlowLatency: 2, EagerWritebacks: true, EagerThreshold: 2},                       // eager range
		{FastLatency: 1, SlowLatency: 2, BankAware: true, BankAwareThreshold: 1, FastCancellation: true}, // fast canc without slow canc
		{FastLatency: 1, WearQuota: true, WearQuotaTarget: 0.5},                                          // wq target range
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%v) should be invalid", i, c)
		}
	}
}

func TestCanonicalZeroesDisabledParams(t *testing.T) {
	c := Config{
		FastLatency: 1.5, SlowLatency: 3,
		BankAwareThreshold: 3, EagerThreshold: 8, WearQuotaTarget: 8,
		SlowCancellation: true,
	}
	canon := c.Canonical()
	if canon.BankAwareThreshold != 0 || canon.EagerThreshold != 0 || canon.WearQuotaTarget != 0 {
		t.Fatalf("disabled params not zeroed: %+v", canon)
	}
	if canon.SlowLatency != canon.FastLatency || canon.SlowCancellation {
		t.Fatalf("slow-write params not normalized without slow techniques: %+v", canon)
	}
}

// Property: Canonical is idempotent.
func TestCanonicalIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		c := randomConfig(rand.New(rand.NewSource(seed)))
		once := c.Canonical()
		return once == once.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomConfig(rng *rand.Rand) Config {
	lat := func() float64 { return LatencyGrid[rng.Intn(len(LatencyGrid))] }
	c := Config{
		BankAware:          rng.Intn(2) == 0,
		BankAwareThreshold: 1 + rng.Intn(4),
		EagerWritebacks:    rng.Intn(2) == 0,
		EagerThreshold:     EagerThresholdGrid[rng.Intn(len(EagerThresholdGrid))],
		WearQuota:          rng.Intn(2) == 0,
		WearQuotaTarget:    4 + float64(rng.Intn(7)),
		FastLatency:        lat(),
		SlowLatency:        lat(),
		SlowCancellation:   rng.Intn(2) == 0,
	}
	if c.SlowLatency < c.FastLatency {
		c.FastLatency, c.SlowLatency = c.SlowLatency, c.FastLatency
	}
	if c.SlowCancellation && rng.Intn(2) == 0 {
		c.FastCancellation = true
	}
	return c
}

func TestVectorEncoding(t *testing.T) {
	// The paper's example vector (§4.1.1): bank-aware threshold 1, eager
	// threshold 32, no wear quota, latencies 1.5/3.0, slow cancellation.
	c := Config{
		BankAware: true, BankAwareThreshold: 1,
		EagerWritebacks: true, EagerThreshold: 32,
		FastLatency: 1.5, SlowLatency: 3.0,
		SlowCancellation: true,
	}
	want := []float64{1, 1, 1, 32, 0, 0, 1.5, 3.0, 0, 1}
	got := c.Vector()
	if len(got) != 10 {
		t.Fatalf("vector length %d, want %d", len(got), 10)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vector[%d] = %v, want %v (%v)", i, got[i], want[i], got)
		}
	}
	if len(VectorNames()) != 10 {
		t.Fatal("VectorNames length mismatch")
	}
}

func TestCompressedEncoding(t *testing.T) {
	c := Config{
		BankAware: true, BankAwareThreshold: 3,
		EagerWritebacks: true, EagerThreshold: 4, // least eager → level 1
		FastLatency: 2, SlowLatency: 3,
		FastCancellation: true, SlowCancellation: true,
	}
	got := c.Compressed()
	want := []float64{3, 1, 2, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compressed[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(CompressedNames()) != 5 {
		t.Fatal("CompressedNames length mismatch")
	}
	// Eager threshold 32 is the most eager level (§3.1).
	c.EagerThreshold = 32
	if c.Compressed()[1] != 4 {
		t.Fatalf("eager level for threshold 32 = %v, want 4", c.Compressed()[1])
	}
	// Disabled techniques encode as 0.
	d := Default()
	for i, v := range d.Compressed()[:2] {
		if v != 0 {
			t.Fatalf("default compressed[%d] = %v, want 0", i, v)
		}
	}
}

func TestString(t *testing.T) {
	s := StaticBaseline().String()
	for _, frag := range []string{"bank=T/1", "eager=T/32", "wq=T/8.0y", "lat=1.0/3.0"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

func TestEnumerateCounts(t *testing.T) {
	noWQ := Enumerate(SpaceOptions{})
	if len(noWQ) != 2030 {
		t.Fatalf("no-wq space size = %d, want 2030", len(noWQ))
	}
	full := Enumerate(SpaceOptions{IncludeWearQuota: true})
	if len(full) != 2*len(noWQ) {
		t.Fatalf("wq space size = %d, want %d", len(full), 2*len(noWQ))
	}

	// Case breakdown documented in DESIGN.md.
	count := func(cfgs []Config, keep func(Config) bool) int {
		n := 0
		for _, c := range cfgs {
			if keep(c) {
				n++
			}
		}
		return n
	}
	if n := count(noWQ, func(c Config) bool { return !c.BankAware && !c.EagerWritebacks }); n != 14 {
		t.Fatalf("neither case = %d, want 14", n)
	}
	if n := count(noWQ, func(c Config) bool { return c.BankAware && !c.EagerWritebacks }); n != 336 {
		t.Fatalf("bank-only case = %d, want 336", n)
	}
	if n := count(noWQ, func(c Config) bool { return !c.BankAware && c.EagerWritebacks }); n != 336 {
		t.Fatalf("eager-only case = %d, want 336", n)
	}
	if n := count(noWQ, func(c Config) bool { return c.BankAware && c.EagerWritebacks }); n != 1344 {
		t.Fatalf("both case = %d, want 1344", n)
	}
}

func TestEnumerateAllValid(t *testing.T) {
	for i, c := range Enumerate(SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8}) {
		if err := c.Validate(); err != nil {
			t.Fatalf("config %d invalid: %v (%v)", i, err, c)
		}
		if c.UsesSlowWrites() && c.SlowLatency < c.FastLatency {
			t.Fatalf("config %d: slow < fast", i)
		}
		if c.FastCancellation && !c.SlowCancellation && c.UsesSlowWrites() {
			t.Fatalf("config %d: illegal cancellation combo", i)
		}
	}
}

func TestEnumerateDeterministicAndUnique(t *testing.T) {
	a := Enumerate(SpaceOptions{IncludeWearQuota: true})
	b := Enumerate(SpaceOptions{IncludeWearQuota: true})
	if len(a) != len(b) {
		t.Fatal("non-deterministic enumeration size")
	}
	seen := map[[10]int16]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("enumeration differs at %d", i)
		}
		k := a[i].Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("duplicate configs at %d and %d: %v", prev, i, a[i])
		}
		seen[k] = i
	}
}

func TestSpaceStrided(t *testing.T) {
	s := NewSpace(SpaceOptions{}) // 2030 configurations
	for _, tc := range []struct{ stride, n, last int }{
		{-3, s.Len(), s.Len() - 1}, {0, s.Len(), s.Len() - 1}, {1, s.Len(), s.Len() - 1},
		{23, 89, 2024}, {2030, 1, 0}, {5000, 1, 0},
	} {
		idx := s.Strided(tc.stride)
		if len(idx) != tc.n || idx[0] != 0 || idx[len(idx)-1] != tc.last {
			t.Errorf("Strided(%d): %d indices, last %d; want %d, last %d",
				tc.stride, len(idx), idx[len(idx)-1], tc.n, tc.last)
		}
	}
}

func TestSpaceFilterAndDistinct(t *testing.T) {
	s := NewSpace(SpaceOptions{})
	idx := s.Filter(func(c Config) bool { return c.FastLatency == 1.0 })
	if len(idx) == 0 {
		t.Fatal("filter found nothing")
	}
	for _, i := range idx {
		if s.At(i).FastLatency != 1.0 {
			t.Fatal("filter returned non-matching config")
		}
	}
	// The space's distinct fast latencies are exactly LatencyGrid: the
	// per-value filters are non-empty and partition the space.
	covered := 0
	for _, v := range LatencyGrid {
		n := len(s.Filter(func(c Config) bool { return c.FastLatency == v }))
		if n == 0 {
			t.Fatalf("no configuration with fast latency %v", v)
		}
		covered += n
	}
	if covered != s.Len() {
		t.Fatalf("fast latencies of LatencyGrid cover %d of %d configurations", covered, s.Len())
	}
}

func TestKeyQuantization(t *testing.T) {
	a := Config{FastLatency: 1.5, SlowLatency: 1.5}
	b := Config{FastLatency: 1.5 + 1e-9, SlowLatency: 1.5}
	if a.Key() != b.Key() {
		t.Fatal("keys must absorb float noise")
	}
	c := Config{FastLatency: 2.0, SlowLatency: 2.0}
	if a.Key() == c.Key() {
		t.Fatal("distinct configs must have distinct keys")
	}
}
