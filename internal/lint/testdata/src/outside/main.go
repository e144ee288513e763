// Command outside is its own module, so it stands outside any
// internal/ tree, as cmd/figures does. math-rand applies to every
// package, not only simulation ones, so its import is reported.
package main

import (
	"math/rand" // want math-rand
	"os"
)

func main() { os.Exit(rand.Intn(2)) }
