// Package engine is a goleak fixture loaded under an import path ending in
// internal/engine, where the package's own identifiers count as tracking
// evidence; the `// want <rule>` markers are asserted by internal/analysis
// tests.
package engine

import "time"

// Pool stands in for an engine primitive.
type Pool struct{ n int }

func (p *Pool) run() { p.n++ }

// qualifiedOnly mentions nothing but the time package: a package name is
// not engine evidence even inside the engine package.
func qualifiedOnly() {
	go func() { // want goleak
		time.Sleep(time.Hour)
	}()
}

// localOnly mentions nothing but a local: a local of the engine package is
// not an engine primitive.
func localOnly() {
	n := 0
	go func() { // want goleak
		n++
	}()
}

// poolTracked runs a method of an engine type. Clean.
func poolTracked(p *Pool) {
	go p.run()
}
