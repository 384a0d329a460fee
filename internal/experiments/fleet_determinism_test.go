package experiments

import (
	"reflect"
	"testing"
)

// The sweeps that fan out through the fleet pool must produce identical
// rows for any worker count: every arm derives its randomness from the
// Options seed and its arm index, never from scheduling.

func TestExtTDDSweepParallelDeterminism(t *testing.T) {
	serial, err := ExtTDDSweep(Options{Quick: true, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExtTDDSweep(Options{Quick: true, Seed: 11, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("TDD sweep diverges:\nworkers=1: %+v\nworkers=8: %+v", serial, parallel)
	}
}

func TestExtABRComparisonParallelDeterminism(t *testing.T) {
	serial, err := ExtABRComparison(Options{Quick: true, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExtABRComparison(Options{Quick: true, Seed: 11, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("ABR comparison diverges:\nworkers=1: %+v\nworkers=8: %+v", serial, parallel)
	}
}

func TestFig19ParallelDeterminism(t *testing.T) {
	serial, err := Fig19(Options{Quick: true, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig19(Options{Quick: true, Seed: 11, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig19 diverges:\nworkers=1: %+v\nworkers=8: %+v", serial, parallel)
	}
}
