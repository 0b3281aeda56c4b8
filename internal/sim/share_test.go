package sim

import (
	"reflect"
	"testing"

	"mct/internal/config"
)

// shareBase is the configuration every family of sharingFamilies varies:
// every technique on, so each parameter reaches a decision.
func shareBase() config.Config {
	return config.Config{
		BankAware: true, BankAwareThreshold: 2,
		EagerWritebacks: true, EagerThreshold: 16,
		WearQuota: true, WearQuotaTarget: 8,
		FastLatency: 1, SlowLatency: 2,
		SlowCancellation: true,
	}
}

// sharingFamilies returns batches of configurations that each differ from
// the first of their batch in exactly one parameter.
func sharingFamilies() map[string][]config.Config {
	noQuota := shareBase()
	noQuota.WearQuota = false
	vary := func(set ...func(*config.Config)) []config.Config {
		out := []config.Config{shareBase()}
		for _, f := range set {
			c := shareBase()
			f(&c)
			out = append(out, c)
		}
		return out
	}
	return map[string][]config.Config{
		"fast latency": vary(
			func(c *config.Config) { c.FastLatency = 1.5 },
			func(c *config.Config) { c.FastLatency = 2 }),
		"fast cancellation": vary(func(c *config.Config) { c.FastCancellation = true }),
		"bank-aware":        vary(func(c *config.Config) { c.BankAware = false }),
		"bank-aware threshold": vary(
			func(c *config.Config) { c.BankAwareThreshold = 1 },
			func(c *config.Config) { c.BankAwareThreshold = 3 },
			func(c *config.Config) { c.BankAwareThreshold = 4 }),
		"eager": vary(func(c *config.Config) { c.EagerWritebacks = false }),
		"eager threshold": vary(
			func(c *config.Config) { c.EagerThreshold = 4 },
			func(c *config.Config) { c.EagerThreshold = 8 },
			func(c *config.Config) { c.EagerThreshold = 17 },
			func(c *config.Config) { c.EagerThreshold = 32 }),
		"slow latency": vary(
			func(c *config.Config) { c.SlowLatency = 2.5 },
			func(c *config.Config) { c.SlowLatency = 3 },
			func(c *config.Config) { c.SlowLatency = 4 }),
		"slow cancellation": vary(func(c *config.Config) { c.SlowCancellation = false }),
		"wear quota":        vary(func(c *config.Config) { c.WearQuota = false }),
		// The primary runs no slices; its members would.
		"wear quota off first": {noQuota, shareBase()},
		"wear quota target": vary(
			func(c *config.Config) { c.WearQuotaTarget = 1 },
			func(c *config.Config) { c.WearQuotaTarget = 2 },
			// On lbm, NVM-only, 2.75 years first forces another slice than
			// 8 years in the streamed tail.
			func(c *config.Config) { c.WearQuotaTarget = 2.75 },
			func(c *config.Config) { c.WearQuotaTarget = 20 }),
	}
}

// TestEvaluateBatchSharing is the equivalence proof of copy-on-divergence
// lanes: on zeusmp, gups and lbm, NVM-only and with the DRAM tier, over a
// window that streams a tail past the shared prefix, every configuration
// of a batch whose members differ in one parameter equals its Evaluate
// under reflect.DeepEqual. Through testSplit it checks that the run covers
// a lane shared to the end, a split at the first access, one in the
// streamed tail and one in the final drain.
func TestEvaluateBatchSharing(t *testing.T) {
	const n = windowCap + 17
	var splits []int
	testSplit = func(at int) { splits = append(splits, at) }
	defer func() { testSplit = nil }()
	seen := map[string]bool{}
	for _, tiers := range []config.TierConfig{{}, {DRAMCache: true}} {
		opt := DefaultOptions()
		opt.Tiers = tiers
		for _, bench := range []string{"zeusmp", "gups", "lbm"} {
			p, err := Prepare(bench, 0, n, opt)
			if err != nil {
				t.Fatal(err)
			}
			for name, cfgs := range sharingFamilies() {
				splits = splits[:0]
				got, err := p.EvaluateBatch(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				if len(splits) < len(cfgs)-1 {
					seen["shared to the end"] = true
				}
				for _, at := range splits {
					switch {
					case at == 0:
						seen["split at the first access"] = true
					case at >= windowCap && at < n:
						seen["split in the streamed tail"] = true
					case at == n:
						seen["split in the final drain"] = true
					}
				}
				for k, cfg := range cfgs {
					one, err := p.Evaluate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[k], one) {
						t.Fatalf("%s dram=%t %s, %v (splits at %v): shared-lane metrics differ\nbatch:  %+v\nsingle: %+v",
							bench, tiers.DRAMCache, name, cfg, splits, got[k], one)
					}
				}
			}
		}
	}
	for _, c := range []string{"shared to the end", "split at the first access", "split in the streamed tail", "split in the final drain"} {
		if !seen[c] {
			t.Errorf("no batch had a %s", c)
		}
	}
}
