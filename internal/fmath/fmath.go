// Package fmath holds bit-exact fast paths for the stdlib math calls
// the slot path makes most often.
//
// Pow10(y) returns math.Pow(10, y) bit for bit. It is Go's portable
// math.pow specialised to x = 10: Log(10), Frexp(10) and the squaring
// ladder of 10 do not depend on y, so they are computed once at package
// init instead of on every call, and the rest of pow runs unchanged.
// math.Pow uses that portable code on every GOARCH except s390x, which
// has an assembly Pow; there the contract does not hold (the package
// test skips with that reason).
package fmath

import "math"

// pow10Max bounds the fast range: for |y| < pow10Max, 10^y lies in
// (1e-64, 1e64), far inside the normal float64 range, so math.pow's
// closing Ldexp(a1, ae) equals the exact multiply a1·2^ae.
const pow10Max = 64

var (
	// ln10 is what math.pow's Log(x) returns for x = 10. It is
	// deliberately not the math.Ln10 constant: the kernel must use
	// exactly the Log result pow uses.
	ln10 = math.Log(10)
	// ladderFrac[k]·2^ladderExp[k] is 10^(2^k) as math.pow's squaring
	// loop holds it after k squarings of Frexp(10). After the yf > 0.5
	// fold the integer part is at most pow10Max, so bits 0..6 suffice.
	ladderFrac [7]float64
	ladderExp  [7]int
)

func init() {
	x1, xe := math.Frexp(10)
	for k := range ladderFrac {
		ladderFrac[k], ladderExp[k] = x1, xe
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
}

// Pow10 returns 10^y, bit-identical to math.Pow(10, y) wherever
// math.Pow is Go's portable implementation (every GOARCH but s390x).
//
//detlint:zeroalloc
func Pow10(y float64) float64 {
	ay := math.Abs(y)
	// NaN and ±Inf fail the range test; 0, ±0.5 and 1 are pow's own
	// special cases, taken before its general path.
	//detlint:allow floatcmp pow's special-case inputs are exact values, matched bit for bit
	if !(ay < pow10Max) || ay == 0 || ay == 0.5 || y == 1 {
		return math.Pow(10, y)
	}

	// pow's Modf(|y|): for 0 < |y| < 64 the truncated integer part and
	// the exact difference are the same two values.
	yi := float64(int64(ay))
	yf := ay - yi

	a1 := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}

	// Multiply in the tabulated squarings of 10 by the bits of yi, in
	// pow's order, accumulating the powers of two into ae.
	ae := 0
	for i, k := int(yi), 0; i != 0; i, k = i>>1, k+1 {
		if i&1 == 1 {
			a1 *= ladderFrac[k]
			ae += ladderExp[k]
		}
	}

	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return a1 * math.Float64frombits(uint64(1023+ae)<<52)
}
