// Fixture for the lockflow rule: every mutex acquisition — a direct
// Lock/RLock or one made by a helper (any depth) — must be released on every
// path out of the holding function: directly, through a releasing helper,
// or via defer of either.
package lockflow

import (
	"errors"
	"sync"
)

type store struct {
	mu sync.Mutex
	n  int
}

// lockIt hides the acquisition behind a call boundary. It is itself a
// direct hold that survives to exit; a deliberate lock helper carries a
// reasoned ignore in real code.
func (s *store) lockIt() { s.mu.Lock() } // want lockflow

// unlockIt hides the release.
func (s *store) unlockIt() { s.mu.Unlock() }

// bad acquires through the helper and returns without any release.
func bad(s *store) {
	s.lockIt() // want lockflow
	s.n++
}

// good releases through the deferred helper.
func good(s *store) {
	s.lockIt()
	defer s.unlockIt()
	s.n++
}

// alsoGood releases directly: the helper-acquired key unifies with the
// direct unlock's expression key.
func alsoGood(s *store) {
	s.lockIt()
	s.n++
	s.mu.Unlock()
}

// deferredLiteral releases inside a deferred literal.
func deferredLiteral(s *store) {
	s.lockIt()
	defer func() {
		s.unlockIt()
	}()
	s.n++
}

// leaky releases on only one path: the early return leaks the hold.
func leaky(s *store, cond bool) int {
	s.lockIt() // want lockflow
	if cond {
		return 0
	}
	s.mu.Unlock()
	return s.n
}

// lockDeep proves transitivity: it is itself a call-derived hold and its
// summary propagates the acquisition one level further up.
func (s *store) lockDeep() { s.lockIt() } // want lockflow

func deepBad(s *store) {
	s.lockDeep() // want lockflow
	s.n++
}

// helperThenDirect holds s.mu through the helper and locks it again
// directly: one leaked lock is one finding, at the earliest acquisition.
func helperThenDirect(s *store) {
	s.lockIt() // want lockflow
	s.mu.Lock()
	s.n++
}

// suppressed proves the ignore directive covers lockflow findings.
func suppressed(s *store) {
	//mctlint:ignore lockflow fixture: suppression must cover program-scoped rules
	s.lockIt()
	s.n++
}

func leakOnErrorReturn(s *store, fail bool) error {
	s.mu.Lock() // want lockflow
	if fail {
		return errors.New("boom") // this path skips the unlock
	}
	s.n++
	s.mu.Unlock()
	return nil
}

func leakOnPanicPath(s *store, bad bool) {
	s.mu.Lock() // want lockflow
	if bad {
		panic("invariant violated") // deferless panic exits locked
	}
	s.n++
	s.mu.Unlock()
}

func rlockLeak(mu *sync.RWMutex, skip bool) {
	mu.RLock() // want lockflow
	if skip {
		return
	}
	mu.RUnlock()
}

// balancedBranches unlocks on every path explicitly: clean.
func balancedBranches(s *store, fail bool) error {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return errors.New("boom")
	}
	s.n++
	s.mu.Unlock()
	return nil
}

// deferredUnlock covers every later exit, including panics: clean.
func deferredUnlock(s *store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if s.n > 1<<30 {
		panic("overflow") // the deferred unlock still runs
	}
}

// deferredLiteralUnlock releases through a deferred closure: clean.
func deferredLiteralUnlock(s *store) {
	s.mu.Lock()
	defer func() {
		s.n++
		s.mu.Unlock()
	}()
}

// readSide pairs RLock with a deferred RUnlock: clean.
func readSide(mu *sync.RWMutex) int {
	mu.RLock()
	defer mu.RUnlock()
	return 1
}

// lockInLoop is balanced within each iteration: clean.
func lockInLoop(s *store, n int) {
	for i := 0; i < n; i++ {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
}

// literalLeak proves function literals are checked as their own bodies.
func literalLeak(s *store) func() {
	return func() {
		s.mu.Lock() // want lockflow
		s.n++
	}
}

func suppressedHandoff(s *store) {
	s.mu.Lock() //mctlint:ignore lockflow fixture: lock handoff — the caller releases
	s.n++
}
