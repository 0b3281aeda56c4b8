package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		accesses, windows int
		ok                bool
	}{
		{200_000, 20, true},
		{10, 20, true}, // fewer accesses than windows: one window
		{200_000, 0, false},
		{100, -3, false},
		{0, 20, false},
		{-5, 20, false},
	} {
		err := checkFlags(tc.accesses, tc.windows)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(-accesses %d, -windows %d) = %v, want ok=%v", tc.accesses, tc.windows, err, tc.ok)
		}
	}
}
