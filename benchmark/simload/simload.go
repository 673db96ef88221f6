// Package simload drives the DES event loop for the benchmark's
// simclock rung. It is a package of its own because code that imports
// simclock runs on virtual time and may not read the wall clock, while
// the benchmark's timing code must.
package simload

import "stellaris/internal/simclock"

// FireEvents schedules n no-op events on a fresh clock, spread over 97
// distinct virtual times, and runs them all.
func FireEvents(n int) {
	c := simclock.New()
	noop := func() {}
	for i := 0; i < n; i++ {
		c.After(float64(i%97), noop)
	}
	c.Run()
}
