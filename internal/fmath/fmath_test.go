package fmath

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// skipOffPortablePow skips where math.Pow is not Go's portable pow,
// the implementation Pow10 is bit-identical to.
func skipOffPortablePow(tb testing.TB) {
	tb.Helper()
	if runtime.GOARCH == "s390x" {
		tb.Skip("math.Pow is assembly on s390x; Pow10 matches Go's portable math.pow, which every other GOARCH uses")
	}
}

// checkBits fails unless Pow10(y) and math.Pow(10, y) have the same
// bits, or are both NaN.
func checkBits(tb testing.TB, y float64) {
	tb.Helper()
	got, want := Pow10(y), math.Pow(10, y)
	if math.IsNaN(got) && math.IsNaN(want) {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		tb.Fatalf("Pow10(%v) = %v (%#x), math.Pow(10, %v) = %v (%#x)",
			y, got, math.Float64bits(got), y, want, math.Float64bits(want))
	}
}

func TestPow10Edges(t *testing.T) {
	skipOffPortablePow(t)
	ys := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, -1,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		63.9, -63.9, math.Nextafter(64, 0), -math.Nextafter(64, 0), 64, -64,
		308, -308, 309, -323.5, -330,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	// Integers, half-integers, and values just either side of both: the
	// yf == 0 and yf == 0.5 boundaries on every integer part in range.
	for n := -70; n <= 70; n++ {
		f := float64(n)
		ys = append(ys, f, f+0.5,
			math.Nextafter(f+0.5, f), math.Nextafter(f+0.5, f+1),
			math.Nextafter(f, f-1), math.Nextafter(f, f+1))
	}
	for _, y := range ys {
		checkBits(t, y)
	}
}

func TestPow10Random(t *testing.T) {
	skipOffPortablePow(t)
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		y := rng.Float64()*140 - 70
		if i%3 == 0 {
			// Configured dB values come in 0.01 dB steps.
			y = math.Round(y*100) / 100
		}
		checkBits(t, y)
	}
}

func FuzzPow10(f *testing.F) {
	skipOffPortablePow(f)
	for _, y := range []float64{0, 0.5, -0.5, 1, -1, 2.5, -12.34, 63.9, 64, -323.5, math.Inf(1), math.NaN()} {
		f.Add(y)
	}
	f.Fuzz(func(t *testing.T, y float64) { checkBits(t, y) })
}

func TestPow10Allocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sink = Pow10(-7.3) }); n != 0 {
		t.Fatalf("Pow10 allocates %v per call", n)
	}
}

var sink float64

// dbSeries is a smooth dB-range input series, the shape of a per-slot
// received-power trace along a route.
func dbSeries() []float64 {
	ys := make([]float64, 4096)
	for i := range ys {
		ys[i] = -9 + 3*math.Sin(float64(i)/200) + float64(i%7)/100
	}
	return ys
}

func BenchmarkPow10(b *testing.B) {
	ys := dbSeries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Pow10(ys[i%len(ys)])
	}
}

func BenchmarkMathPow10(b *testing.B) {
	ys := dbSeries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = math.Pow(10, ys[i%len(ys)])
	}
}
