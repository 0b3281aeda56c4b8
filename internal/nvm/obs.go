package nvm

import "mct/internal/obs"

// bankWearBounds are the buckets of the nvm.bank_wear histogram, as
// fractions of the per-bank wear budget (1.0 = end of life).
var bankWearBounds = []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// queueDepthBounds cover the 0..16 clamp of Stats.BankQueueDepth.
func queueDepthBounds() []float64 {
	b := make([]float64, 17)
	for i := range b {
		b[i] = float64(i)
	}
	return b
}

// Obs publishes controller telemetry into an obs.Registry from cumulative
// Stats snapshots at window boundaries — the controller's hot path keeps
// only its native counters. See cache.Obs for the baseline/rebase contract
// (identical here).
type Obs struct {
	reg        *obs.Registry
	wearBudget float64

	reads            *obs.Counter
	rowHits          *obs.Counter
	rowMisses        *obs.Counter
	demandWrites     *obs.Counter
	eagerWrites      *obs.Counter
	fastWrites       *obs.Counter
	slowWrites       *obs.Counter
	forcedWrites     *obs.Counter
	cancelledWrites  *obs.Counter
	queueFullStalls  *obs.Counter
	eagerConversions *obs.Counter
	readLatency      *obs.Counter
	readCellCycles   *obs.Counter
	writePulseCycles *obs.Counter
	forcedSlices     *obs.Counter
	totalSlices      *obs.Counter

	// queueDepth accumulates the per-bank write-queue depth distribution
	// sampled at each demand-write enqueue.
	queueDepth *obs.Histogram
	// bankWear is the current wear spread across banks as budget fractions
	// (a state distribution: replaced, not accumulated, each publish).
	bankWear *obs.Histogram

	wearMaxFrac    *obs.Gauge
	wearTotal      *obs.Gauge
	writeQueuePeak *obs.Gauge

	last Stats
}

// NewObs registers the nvm metric family on r. wearBudget is the per-bank
// wear budget (Controller.WearBudget) used to normalize wear gauges and
// the bank-wear histogram.
func NewObs(r *obs.Registry, wearBudget float64) *Obs {
	return &Obs{
		reg:              r,
		wearBudget:       wearBudget,
		reads:            r.Counter("nvm.reads"),
		rowHits:          r.Counter("nvm.row_hits"),
		rowMisses:        r.Counter("nvm.row_misses"),
		demandWrites:     r.Counter("nvm.demand_writes"),
		eagerWrites:      r.Counter("nvm.eager_writes"),
		fastWrites:       r.Counter("nvm.fast_writes"),
		slowWrites:       r.Counter("nvm.slow_writes"),
		forcedWrites:     r.Counter("nvm.forced_writes"),
		cancelledWrites:  r.Counter("nvm.cancelled_writes"),
		queueFullStalls:  r.Counter("nvm.queue_full_stalls"),
		eagerConversions: r.Counter("nvm.eager_conversions"),
		readLatency:      r.Counter("nvm.read_latency_cycles"),
		readCellCycles:   r.Counter("nvm.read_cell_cycles"),
		writePulseCycles: r.Counter("nvm.write_pulse_cycles"),
		forcedSlices:     r.Counter("nvm.forced_slices"),
		totalSlices:      r.Counter("nvm.total_slices"),
		queueDepth:       r.Histogram("nvm.bank_queue_depth", queueDepthBounds()),
		bankWear:         r.Histogram("nvm.bank_wear", bankWearBounds),
		wearMaxFrac:      r.Gauge("nvm.wear_max_frac"),
		wearTotal:        r.Gauge("nvm.wear_total"),
		writeQueuePeak:   r.Gauge("nvm.write_queue_peak"),
	}
}

// Rebase sets the delta baseline to s without publishing.
func (o *Obs) Rebase(s Stats) { o.last = s }

// Publish accounts the delta between s (a snapshot from Controller.Stats)
// and the baseline, refreshes the state-distribution instruments, and
// advances the baseline.
func (o *Obs) Publish(s Stats) {
	o.reads.Add(s.Reads - o.last.Reads)
	o.rowHits.Add(s.RowHits - o.last.RowHits)
	o.rowMisses.Add(s.RowMisses - o.last.RowMisses)
	o.demandWrites.Add(s.DemandWrites - o.last.DemandWrites)
	o.eagerWrites.Add(s.EagerWrites - o.last.EagerWrites)
	o.fastWrites.Add(s.FastWrites - o.last.FastWrites)
	o.slowWrites.Add(s.SlowWrites - o.last.SlowWrites)
	o.forcedWrites.Add(s.ForcedWrites - o.last.ForcedWrites)
	o.cancelledWrites.Add(s.CancelledWrites - o.last.CancelledWrites)
	o.queueFullStalls.Add(s.QueueFullStalls - o.last.QueueFullStalls)
	o.eagerConversions.Add(s.EagerConversions - o.last.EagerConversions)
	o.readLatency.Add(s.ReadLatencySum - o.last.ReadLatencySum)
	o.readCellCycles.Add(s.ReadCellCycles - o.last.ReadCellCycles)
	o.writePulseCycles.Add(s.WritePulseCycles - o.last.WritePulseCycles)
	o.forcedSlices.Add(s.ForcedSlices - o.last.ForcedSlices)
	o.totalSlices.Add(s.TotalSlices - o.last.TotalSlices)
	for depth, n := range s.BankQueueDepth {
		o.queueDepth.ObserveN(float64(depth), n-o.last.BankQueueDepth[depth])
	}

	if o.wearBudget > 0 {
		fracs := make([]float64, len(s.WearByBank))
		maxFrac := 0.0
		for i, w := range s.WearByBank {
			fracs[i] = w / o.wearBudget
			if fracs[i] > maxFrac {
				maxFrac = fracs[i]
			}
		}
		o.bankWear.SetValues(fracs)
		o.wearMaxFrac.Set(maxFrac)
	}
	o.wearTotal.Set(s.TotalWear)
	o.writeQueuePeak.Set(float64(s.WriteQueuePeak))

	o.last = s
}

// CloneInto rebinds a copy of this publisher to r (a clone of the original
// registry), preserving the delta baseline.
func (o *Obs) CloneInto(r *obs.Registry) *Obs {
	n := NewObs(r, o.wearBudget)
	n.last = o.last.Clone()
	return n
}
