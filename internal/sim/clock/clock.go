// Package clock provides the virtual-time base of the simulation.
//
// Every component of the simulated platform (host CPU, GPU devices, the
// PTP synchroniser) shares a single Clock. Nothing in the simulator ever
// sleeps in wall time: "sleeping" advances the virtual clock, and device
// activity is materialised lazily against it. This keeps full benchmark
// campaigns deterministic and fast regardless of how much simulated time
// they span.
package clock

import (
	"fmt"
	"time"
)

// Clock is a monotonic virtual clock with nanosecond resolution.
//
// A Clock is not safe for concurrent mutation; the simulation is driven by
// a single host goroutine, mirroring the single CPU thread that drives the
// real LATEST benchmark. Analysis code may fan out across goroutines, but
// only after all time-advancing calls have completed.
type Clock struct {
	now int64 // nanoseconds since simulation start
}

// New returns a clock positioned at time zero.
func New() *Clock { return &Clock{} }

// NewAt returns a clock positioned at the given nanosecond timestamp.
// Starting simulations at a nonzero epoch helps tests catch code that
// conflates "zero time" with "unset".
func NewAt(ns int64) *Clock {
	if ns < 0 {
		panic(fmt.Sprintf("clock: negative epoch %d", ns))
	}
	return &Clock{now: ns}
}

// Now reports the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d nanoseconds.
// It panics if d is negative: virtual time, like real time, is monotonic,
// and a negative advance always indicates a simulation bug.
func (c *Clock) Advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("clock: negative advance %d", d))
	}
	c.now += d
}

// AdvanceTo moves the clock forward to the absolute timestamp t.
// Moving to the past panics; moving to the present is a no-op.
func (c *Clock) AdvanceTo(t int64) {
	if t < c.now {
		panic(fmt.Sprintf("clock: AdvanceTo(%d) would rewind from %d", t, c.now))
	}
	c.now = t
}

// Sleep advances the clock by the given duration, emulating usleep on the
// benchmark's host thread.
func (c *Clock) Sleep(d time.Duration) { c.Advance(int64(d)) }
