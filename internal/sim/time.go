// Package sim provides a deterministic discrete-event simulation engine.
//
// All Nimblock components execute against a virtual clock measured in
// microseconds. Events scheduled for the same instant fire in the order
// they were scheduled, which makes every simulation run reproducible.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in microseconds since simulation start.
type Time int64

// Never is a time after every instant a simulation can reach.
const Never Time = math.MaxInt64

// Duration is a span of virtual time, in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports d as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Std converts d to a standard library time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// String formats the duration using the standard library representation.
func (d Duration) String() string { return d.Std().String() }

// FromStd converts a standard library duration to a simulation duration,
// truncating to microsecond precision.
func FromStd(d time.Duration) Duration { return Duration(d / time.Microsecond) }

// Seconds builds a Duration from a floating-point second count.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// Milliseconds builds a Duration from a floating-point millisecond count.
func Milliseconds(ms float64) Duration { return Duration(ms * float64(Millisecond)) }
