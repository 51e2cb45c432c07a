package main

import "testing"

// TestWarmupFlagMapping pins what -warmup means: the flag's -1 default is
// bench.Options' zero value (the per-mode default), an explicit 0 is a
// negative Options value (no warmup), and a positive count passes through.
func TestWarmupFlagMapping(t *testing.T) {
	for _, tc := range []struct{ flag, want int }{
		{-1, 0},
		{0, -1},
		{1, 1},
		{3, 3},
	} {
		if got := warmupRuns(tc.flag); got != tc.want {
			t.Errorf("-warmup %d: Options.Warmup = %d, want %d", tc.flag, got, tc.want)
		}
	}
}
