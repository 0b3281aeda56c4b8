// Package maprange is an analyzer fixture with known violations; the
// `// want <rule>` markers are asserted by internal/analysis tests.
package maprange

import (
	"fmt"
	"sort"
	"strings"
)

func directOutput(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want maprange
	}
}

func throughLocal(w *strings.Builder, m map[string]float64) {
	for k := range m {
		s := k + "!"
		w.WriteString(s) // want maprange
	}
}

func floatAccumulation(m map[float64]uint64) float64 {
	var sum float64
	for r, n := range m {
		sum += float64(n) * r // want maprange
	}
	return sum
}

func stringAccumulation(m map[string]bool) string {
	out := ""
	for k := range m {
		out += k // want maprange
	}
	return out
}

func collectWithoutSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want maprange
	}
	return out
}

// collectThenSort is the canonical fix: the collected keys flow into a
// sort call after the loop, so the range is clean.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortBeforeLoop sorts the slice before the range appends to it, so the
// appended keys stay in map order.
func sortBeforeLoop(m map[string]int) []string {
	keys := []string{"default"}
	sort.Strings(keys)
	for k := range m {
		keys = append(keys, k) // want maprange
	}
	return keys
}

// sortInsideLoop re-sorts after every append: the sort starts after the
// range does, so the range is clean.
func sortInsideLoop(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
		sort.Strings(keys)
	}
	return keys
}

// sortAfterLoopInIf sorts after the loop on one branch only; the exemption
// asks where the sort sits, not whether every path runs it.
func sortAfterLoopInIf(m map[string]int, ordered bool) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	if ordered {
		sort.Strings(keys)
	}
	return keys
}

// sortBeforeRangeInOuterLoop sorts at the top of an enclosing loop. The
// outer loop's next turn runs that sort after the inner range, but the last
// map's keys are returned unsorted, so the sort must come after the range
// in the source to count.
func sortBeforeRangeInOuterLoop(ms []map[string]int) []string {
	var keys []string
	for _, m := range ms {
		sort.Strings(keys)
		for k := range m {
			keys = append(keys, k) // want maprange
		}
	}
	return keys
}

// sortedRender composes both halves of the idiom.
func sortedRender(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys { // slice range: order fixed by the sort above
		fmt.Fprintf(&b, "%s=%d\n", k, m[k])
	}
	return b.String()
}

// keyedCopy writes under distinct keys — commutative, clean.
func keyedCopy(dst, src map[string]int) {
	for k, v := range src {
		dst[k] = v
	}
}

// integerTotal is order-insensitive: integer addition commutes exactly.
func integerTotal(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func suppressed(m map[string]int) {
	for k := range m {
		fmt.Println(k) //mctlint:ignore maprange fixture: debug dump where ordering is acceptable
	}
}
