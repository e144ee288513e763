// Package errs exercises the discarded-error and errorf-wrap checks.
package errs

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

var errBase = errors.New("base")

func work() error { return errBase }

func count() (int, error) { return 0, nil }

// Drop discards an error result.
func Drop() {
	work() // want discarded-error
}

// DropTuple discards the trailing error of a multi-result call.
func DropTuple() {
	count() // want discarded-error
}

// Wrap severs the error chain with %v.
func Wrap(err error) error {
	return fmt.Errorf("running: %v", err) // want errorf-wrap
}

// WrapWell preserves the chain: clean.
func WrapWell(err error) error {
	return fmt.Errorf("running: %w", err)
}

// Plain formats no error operand: clean.
func Plain(n int) error {
	return fmt.Errorf("bad count %d", n)
}

// Explicit acknowledges the discard: clean.
func Explicit() {
	_ = work()
}

// Builders never fail, so dropping their errors is conventional.
func Builders() string {
	var b strings.Builder
	b.WriteString("x")
	fmt.Fprintf(&b, "%d", 1)
	fmt.Fprintln(os.Stderr, "status")
	fmt.Println("done") // want stdout-purity
	return b.String()
}
