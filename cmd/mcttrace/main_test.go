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

func TestWindowSizes(t *testing.T) {
	for _, tc := range []struct {
		accesses, windows int
		want              int // windows printed
		last              int // size of the last window
	}{
		{20_000, 3, 3, 6668},
		{200_000, 20, 20, 10_000},
		{10, 20, 1, 10}, // fewer accesses than windows: one window
		{7, 7, 7, 1},
		{1, 1, 1, 1},
	} {
		sizes := windowSizes(tc.accesses, tc.windows)
		sum := 0
		for _, n := range sizes {
			sum += n
		}
		if len(sizes) != tc.want || sum != tc.accesses || sizes[len(sizes)-1] != tc.last {
			t.Errorf("windowSizes(%d, %d) = %v: want %d windows summing to %d, last %d",
				tc.accesses, tc.windows, sizes, tc.want, tc.accesses, tc.last)
		}
	}
}
