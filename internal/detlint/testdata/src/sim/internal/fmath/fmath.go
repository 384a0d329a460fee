// Package fmath stands in for the module's bit-exact math kernels so
// the unitflow fixture can call fmath.Pow10.
package fmath

import "math"

// Pow10 returns 10^y.
func Pow10(y float64) float64 { return math.Pow(10, y) }
