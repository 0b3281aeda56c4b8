package config

import "fmt"

// PromoteThresholdGrid holds the DRAM hot-page promotion thresholds the
// hybrid-tier experiments sweep. Smaller is more aggressive (more of the
// working set migrates to DRAM).
var PromoteThresholdGrid = []int{1, 2, 4, 8}

// TierConfig selects the memory-hierarchy composition of a simulated
// machine. Unlike Config, which the MCT runtime retunes online, the tier
// composition is fixed at machine construction — it is a *scenario* knob,
// swept at the experiment level (one sweep per variant), with the
// promotion threshold joining the learned feature vector as an extra
// tradeoff dimension.
type TierConfig struct {
	// DRAMCache interposes the DRAM cache tier (internal/dram) between the
	// LLC and the NVM controller. False is the stock NVM-only hierarchy.
	DRAMCache bool
	// DRAMPromoteThreshold, when positive, overrides the DRAM tier's
	// hot-page promotion threshold (see dram.Params.PromoteThreshold).
	DRAMPromoteThreshold int
}

// Validate checks tier-composition sanity.
func (t TierConfig) Validate() error {
	if t.DRAMPromoteThreshold < 0 {
		return fmt.Errorf("config: negative DRAM promote threshold %d", t.DRAMPromoteThreshold)
	}
	if !t.DRAMCache && t.DRAMPromoteThreshold != 0 {
		return fmt.Errorf("config: DRAM promote threshold %d set without DRAM cache tier", t.DRAMPromoteThreshold)
	}
	return nil
}

// Vector encodes the tier composition as model features: [dram_cache,
// dram_promote_threshold]. Appended to Config.Vector by callers fitting
// models over the extended (hierarchy-aware) tradeoff space; the base
// 10-dimensional encoding is untouched.
func (t TierConfig) Vector() []float64 {
	v := make([]float64, 2)
	if t.DRAMCache {
		v[0] = 1
		v[1] = float64(t.DRAMPromoteThreshold)
	}
	return v
}

// TierVectorNames returns the feature names of TierConfig.Vector.
func TierVectorNames() []string {
	return []string{"dram_cache", "dram_promote_threshold"}
}
