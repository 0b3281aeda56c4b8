package sim

import (
	"reflect"
	"sync"
	"testing"

	"mct/internal/config"
)

// TestPreparedConcurrentEvaluate hammers one Prepared from many goroutines
// and checks every result against a serial reference evaluation. Under
// `go test -race` this audits the Prepared concurrency contract: Evaluate
// must not write any state shared between evaluations (warmed LLC, trace).
func TestPreparedConcurrentEvaluate(t *testing.T) {
	p, err := Prepare("lbm", 0, 5_000, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	space := config.NewSpace(config.SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8})
	var cfgs []config.Config
	for i := 0; i < space.Len(); i += space.Len() / 12 {
		cfgs = append(cfgs, space.At(i))
	}
	cfgs = append(cfgs, config.Default(), config.StaticBaseline())

	want := make([]Metrics, len(cfgs))
	for i, c := range cfgs {
		if want[i], err = p.Evaluate(c); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger starting points so goroutines collide on different
			// configurations at any given moment.
			for k := 0; k < len(cfgs); k++ {
				i := (k + g) % len(cfgs)
				m, err := p.Evaluate(cfgs[i])
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(m, want[i]) {
					t.Errorf("goroutine %d: concurrent Evaluate(cfg %d) diverged from serial reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestPreparedConcurrentFirstEvaluate: goroutines released together make
// the first Evaluate calls on a fresh Prepared, so they race the one-time
// window materialization (and, with a window past the cap, the shared tail
// generator). Every result must equal a serial evaluation on a second
// Prepared of the same workload.
func TestPreparedConcurrentFirstEvaluate(t *testing.T) {
	const n = windowCap + 5_000
	fresh := func() *Prepared {
		p, err := Prepare("lbm", 0, n, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, ref := fresh(), fresh()

	space := config.NewSpace(config.SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8})
	const goroutines = 8
	cfgs := make([]config.Config, goroutines)
	for g := range cfgs {
		cfgs[g] = space.At(g * space.Len() / goroutines)
	}

	got := make([]Metrics, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = p.Evaluate(cfgs[g])
		}(g)
	}
	close(start)
	wg.Wait()

	for g, cfg := range cfgs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		want, err := ref.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d: concurrent first Evaluate diverged from the serial reference", g)
		}
	}
}
