package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                                   string
		workers, queueCap, perClient, sweepChk int
		ok                                     bool
	}{
		{"defaults", 0, 0, 0, 0, true},
		{"overrides", 2, 8, 4, 16, true},
		{"negative workers", -1, 0, 0, 0, false},
		{"negative queue-cap", 0, -1, 0, 0, false},
		{"negative per-client", 0, 0, -1, 0, false},
		{"negative sweep-chunk", 0, 0, 0, -1, false},
	} {
		err := checkFlags(tc.workers, tc.queueCap, tc.perClient, tc.sweepChk)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
