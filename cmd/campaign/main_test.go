package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/obs"
)

// conflictingFlags must flag exactly the workload-shaping flags the
// user set, in a stable order, and ignore run-level flags (seed,
// parallel, out, ...) that compose with a scenario spec.
func TestConflictingFlags(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{nil, nil},
		{[]string{"-seed", "7", "-parallel", "4", "-out", "x"}, nil},
		{[]string{"-ops", "V_Sp"}, []string{"-ops"}},
		{[]string{"-faults", "rlf=1e-4", "-duration", "2s"}, []string{"-duration", "-faults"}},
		{
			[]string{"-cell-policy", "rr", "-ues-per-cell", "4", "-ops", "V_Sp", "-seed", "9"},
			[]string{"-ops", "-ues-per-cell", "-cell-policy"},
		},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
		fs.String("ops", "", "")
		fs.Duration("duration", 0, "")
		fs.String("faults", "", "")
		fs.Int("ues-per-cell", 1, "")
		fs.String("cell-policy", "", "")
		fs.Int64("seed", 2024, "")
		fs.Int("parallel", 1, "")
		fs.String("out", "", "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("parse %v: %v", c.args, err)
		}
		if got := conflictingFlags(fs.Visit); !reflect.DeepEqual(got, c.want) {
			t.Errorf("conflictingFlags(%v) = %v, want %v", c.args, got, c.want)
		}
	}
}

// usageError rejects command lines that would run with input silently
// ignored, naming what it rejects, and accepts the valid combinations.
func TestUsageError(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" means accepted
	}{
		{nil, ""},
		{[]string{"-ops", "V_Sp,Tmb_US", "-seed", "7"}, ""},
		{[]string{"-ops", "Vzw_mmW", "Tmb_US", "-seed", "7"}, `["Tmb_US" "-seed" "7"]`},
		{[]string{"-quick"}, "-quick only applies to -scenario runs"},
		{[]string{"-scenario", "voip", "-quick", "-seed", "3"}, ""},
		{[]string{"-scenario", "voip", "-ops", "V_Sp"}, "own -ops"},
		{[]string{"-cell-policy", "rr"}, "-cell-policy only applies with -ues-per-cell above 1 (got 1)"},
		{[]string{"-ues-per-cell", "1", "-cell-policy", "pf"}, "(got 1)"},
		{[]string{"-ues-per-cell", "4", "-cell-policy", "rr"}, ""},
		{[]string{"-ues-per-cell", "4"}, ""},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
		fs.String("ops", "", "")
		fs.Int64("seed", 2024, "")
		fs.String("cell-policy", "pf", "")
		uesPerCell := fs.Int("ues-per-cell", 1, "")
		scenarioArg := fs.String("scenario", "", "")
		quick := fs.Bool("quick", false, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("parse %v: %v", c.args, err)
		}
		err := usageError(fs.Args(), fs.Visit, *scenarioArg != "", *quick, *uesPerCell)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("usageError(%v) = %v, want accepted", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("usageError(%v) = %v, want an error containing %s", c.args, err, c.want)
		}
	}
}

// loadScenario resolves pack names before file paths, and its failure
// message lists the shipped packs — the user's menu.
func TestLoadScenario(t *testing.T) {
	s, err := loadScenario("voip")
	if err != nil || s.Name != "voip" {
		t.Fatalf("loadScenario(voip) = (%v, %v)", s, err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	canonical, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, canonical, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, s) {
		t.Error("spec file decoded differently from the pack it was written from")
	}

	if _, err := loadScenario("no-such-thing"); err == nil || !strings.Contains(err.Error(), "voip") {
		t.Errorf("unknown arg error %v must list the shipped packs", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema": 1, "bogus": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadScenario(bad); err == nil {
		t.Error("invalid spec file accepted")
	}
}

// runScenario end to end at quick scale: the manifest lands in -out,
// stamped with the scenario name and digest.
func TestRunScenarioWritesManifest(t *testing.T) {
	out := t.TempDir()
	var m fleet.Metrics
	runScenario("voip", true, out, 2024, 2, &m, time.Now())

	data, err := os.ReadFile(filepath.Join(out, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest obs.RunManifest
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.Scenario != "voip" || len(manifest.ScenarioDigest) != 64 {
		t.Errorf("manifest stamped as (%q, %q), want the pack name and a SHA-256 digest", manifest.Scenario, manifest.ScenarioDigest)
	}
	if manifest.Seed != 2024 || manifest.JobsDone == 0 {
		t.Errorf("manifest accounting: seed=%d jobs=%d", manifest.Seed, manifest.JobsDone)
	}
}
