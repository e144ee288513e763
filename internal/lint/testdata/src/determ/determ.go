// Package determ exercises the mobilint determinism checks. Lines
// carrying a "// want <check>" marker must produce exactly those
// findings; unmarked lines must stay clean.
package determ

import (
	"fmt"
	"math/rand" // want math-rand
	"sort"
	"strings"
	"time"
)

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().Unix() // want time-now
}

// Elapsed measures wall-clock duration.
func Elapsed(t0 time.Time) float64 {
	return time.Since(t0).Seconds() // want time-now
}

// Wait blocks on the wall clock.
func Wait() {
	time.Sleep(time.Millisecond) // want time-now
}

// Draw consumes the implicitly seeded global math/rand stream.
func Draw() int {
	return rand.Intn(6)
}

// Keys leaks map iteration order into a slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want map-order
		out = append(out, k)
	}
	return out
}

// SortedKeys collects then sorts: deterministic, clean.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Render writes rows in map iteration order.
func Render(m map[string]int) string {
	var b strings.Builder
	for k, v := range m { // want map-order
		fmt.Fprintf(&b, "%s=%d\n", k, v)
	}
	return b.String()
}

// Total folds map values commutatively: order-insensitive, clean.
func Total(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
