package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
)

// digestOf hashes the printed form of values. fmt prints maps in key order
// and floats in shortest round-trip form, so equal simulator outputs give
// equal digests and any changed bit changes the digest.
func digestOf(vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v|", v)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// golden pins the expected output digests: workload → seed → leg → digest.
// The simulator is deterministic per seed, so a change that moves any
// simulated statistic on a pinned seed makes the benchmark report wrong
// outputs. Seeds without an entry fall back to an in-run reference
// computed through a second code path (see each workload).
//
//go:embed golden.json
var goldenJSON []byte

type goldenTable map[string]map[string]map[string]string

func loadGolden() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// expected returns the pinned digests of workload's legs for seed, or nil
// when the seed is not pinned.
func (g goldenTable) expected(workload string, seed int64) map[string]string {
	return g[workload][strconv.FormatInt(seed, 10)]
}

// writeGolden regenerates golden.json for seeds [0, n) from the reference
// paths. Run it from the _perfbench directory after a change that is meant
// to alter simulated results:
//
//	go run . -write-golden 64
func writeGolden(n int) error {
	g := goldenTable{"sweep": {}, "mct": {}}
	for seed := int64(0); seed < int64(n); seed++ {
		s := strconv.FormatInt(seed, 10)
		sw, err := sweepReference(seed, sweepLegs)
		if err != nil {
			return err
		}
		g["sweep"][s] = sw
		m, err := mctReference(seed)
		if err != nil {
			return err
		}
		g["mct"][s] = m
		fmt.Fprintf(os.Stderr, "golden: seed %d done\n", seed)
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(data, '\n'), 0o644)
}
