package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"deep15pf/internal/harness"
)

// asProcess is set in the environment of a re-exec'd test binary: TestMain
// then runs repro's main over the binary's arguments instead of the tests,
// so a test sees the command's output and exit code as a shell does.
const asProcess = "REPRO_AS_PROCESS"

func TestMain(m *testing.M) {
	if os.Getenv(asProcess) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// repro runs the command in a child process and returns its stdout, stderr
// and exit code.
func repro(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asProcess+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestUnknownExperiment: an id outside the experiment table is a usage
// error that names every id the table holds, in table order.
func TestUnknownExperiment(t *testing.T) {
	out, stderr, code := repro(t, "-exp", "nope")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want exit 2 and no output", code, out)
	}
	var ids []string
	for _, e := range harness.Experiments {
		ids = append(ids, e.ID)
	}
	want := `unknown experiment "nope"; known: ` + strings.Join(ids, " ") + " all\n"
	if stderr != want {
		t.Fatalf("stderr %q, want %q", stderr, want)
	}
}

// TestReportWrittenAsPrinted: -o writes exactly the report repro prints.
func TestReportWrittenAsPrinted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	out, stderr, code := repro(t, "-exp", "table2", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != out {
		t.Fatalf("-o wrote %q, stdout was %q", written, out)
	}
	if !strings.Contains(out, "## table2 — DNN architectures (Table II)") {
		t.Fatalf("no table2 report in:\n%s", out)
	}
}

// TestEveryExperimentResolves: -exp accepts each id in the table, once,
// and "all".
func TestEveryExperimentResolves(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range harness.Experiments {
		if seen[e.ID] {
			t.Errorf("id %q is in the experiment table twice", e.ID)
		}
		seen[e.ID] = true
		if gen, ok := experiment(e.ID); !ok || gen == nil {
			t.Errorf("-exp %s does not resolve", e.ID)
		}
	}
	if _, ok := experiment("all"); !ok {
		t.Error("-exp all does not resolve")
	}
	if _, ok := experiment("nope"); ok {
		t.Error("-exp nope resolves")
	}
}
