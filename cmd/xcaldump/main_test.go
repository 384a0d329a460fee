package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcol"
)

// TestMain lets the tests run the command itself: with XCALDUMP_MAIN
// set, the test binary is xcaldump, so exit codes and stderr are the
// real ones.
func TestMain(m *testing.M) {
	if os.Getenv("XCALDUMP_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// xcaldump runs the command with args and returns its stdout, stderr
// and exit code.
func xcaldump(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "XCALDUMP_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	default:
		t.Fatal(err)
		return "", "", 0
	}
}

// capture writes a short Tmb_US session (four carriers, so the
// extraction has per-carrier DCI keys to get right) as a columnar trace.
func capture(t *testing.T, path string) {
	t.Helper()
	op, err := operators.ByAcronym("Tmb_US")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(op, operators.Stationary(3))
	if err != nil {
		t.Fatal(err)
	}
	w, f, err := xcol.CreateFile(path, sess.Meta())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := sess.RunIperf(time.Second, net5g.Saturate, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRowAndColumnarDumpsMatch dumps the columnar and row copies of one
// capture: apart from the path they must print the same extraction,
// block index, records and KPI statistics.
func TestRowAndColumnarDumpsMatch(t *testing.T) {
	dir := t.TempDir()
	col := filepath.Join(dir, "capture.xcol")
	row := filepath.Join(dir, "capture.xcal")
	capture(t, col)
	if _, _, err := xcol.ConvertFile(col, row); err != nil {
		t.Fatal(err)
	}
	dump := func(path string) string {
		out, stderr, code := xcaldump(t, "-records", "3", "-blocks", path)
		if code != 0 {
			t.Fatalf("xcaldump %s: exit %d: %s", filepath.Base(path), code, stderr)
		}
		return strings.Replace(out, path, "TRACE", 1)
	}
	colOut, rowOut := dump(col), dump(row)
	if colOut != rowOut {
		t.Fatalf("row and columnar dumps differ:\n--- xcol\n%s\n--- xcal\n%s", colOut, rowOut)
	}
	for _, want := range []string{"cell ", "dci1_1=", "index: ", "#3 slot=", "records=", "PCell: SINR", "V(128ms)"} {
		if !strings.Contains(colOut, want) {
			t.Errorf("dump lacks %q:\n%s", want, colOut)
		}
	}
	if n := strings.Count(colOut, "  cell "); n != 4 {
		t.Errorf("dump shows %d carriers, want Tmb_US's 4:\n%s", n, colOut)
	}
}

// TestConvertRoundTripBytes pins -convert in both directions: a
// columnar capture converted to the row container and back is the
// original file byte for byte.
func TestConvertRoundTripBytes(t *testing.T) {
	dir := t.TempDir()
	col := filepath.Join(dir, "capture.xcol")
	row := filepath.Join(dir, "capture.xcal")
	back := filepath.Join(dir, "back.xcol")
	capture(t, col)
	for _, c := range []struct{ dst, src, dir string }{{row, col, "xcol→xcal"}, {back, row, "xcal→xcol"}} {
		out, stderr, code := xcaldump(t, "-convert", c.dst, c.src)
		if code != 0 || !strings.Contains(out, c.dir) {
			t.Fatalf("-convert %s %s: exit %d, stdout %q, stderr %q", c.dst, c.src, code, out, stderr)
		}
	}
	want, err := os.ReadFile(col)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("xcol → xcal → xcol gave %d bytes, original %d", len(got), len(want))
	}
}

// TestBadMagicExits pins that a file that is neither container fails
// with exit status 1 and an error naming the path, both when dumped and
// when converted.
func TestBadMagicExits(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.xcol")
	if err := os.WriteFile(junk, []byte("NOTATRACE at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{junk}, {"-convert", filepath.Join(dir, "out.xcal"), junk}} {
		_, stderr, code := xcaldump(t, args...)
		if code != 1 || !strings.Contains(stderr, junk) {
			t.Errorf("xcaldump %q: exit %d, stderr %q; want exit 1 naming %s", args, code, stderr, junk)
		}
	}
}
