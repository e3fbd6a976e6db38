package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// asProcess is set in the environment of a re-exec'd test binary: TestMain
// then runs astrotrain's main over the binary's arguments instead of the
// tests, so a test sees the command's stdout and exit code as a shell does.
const asProcess = "ASTROTRAIN_AS_PROCESS"

func TestMain(m *testing.M) {
	if os.Getenv(asProcess) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// astrotrain runs the command in a child process and returns its stdout,
// stderr and exit code.
func astrotrain(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

var fingerprintLine = regexp.MustCompile(`final weight fingerprint ([0-9a-f]{16})`)

// smoke is the run shape every pinned fingerprint below is taken at.
var smoke = []string{"-iters", "6", "-train", "96", "-test", "64", "-batch", "16"}

// donorFile saves a small hep net, geometry-compatible with astrotrain's
// default model, as a bare .d15w file.
func donorFile(t *testing.T) string {
	t.Helper()
	net := hep.BuildNet(hep.ModelConfig{Name: "hep-donor", ImageSize: 16, Filters: 8, ConvUnits: 3, Classes: 2}, tensor.NewRNG(41))
	path := filepath.Join(t.TempDir(), "donor.d15w")
	if err := nn.SaveFile(path, net.Params()); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFingerprintsPinned holds astrotrain's trajectories to pinned final
// weights under every kernel table the host has: from scratch and the
// three fine-tunes of one donor — backbone frozen, left trainable, and
// frozen to its first unit only.
func TestFingerprintsPinned(t *testing.T) {
	donor := donorFile(t)
	for _, tc := range []struct {
		name  string
		extra []string
		want  string
	}{
		{"from scratch", nil, "06b20084afd39da8"},
		{"fine-tune, backbone frozen", []string{"-init-from", donor}, "d76dfad26e7b0e55"},
		{"fine-tune, -no-freeze", []string{"-init-from", donor, "-no-freeze"}, "6861b83a7cec9ee4"},
		{"fine-tune, -freeze-units 1", []string{"-init-from", donor, "-freeze-units", "1"}, "73e65cfe2d6b1c18"},
	} {
		for _, isa := range tensor.KernelISAs() {
			out, stderr, code := astrotrain(t, append(append([]string{"-kernels", isa}, smoke...), tc.extra...)...)
			if code != 0 {
				t.Fatalf("%s, -kernels=%s: exit %d: %s", tc.name, isa, code, stderr)
			}
			m := fingerprintLine.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("%s, -kernels=%s: no fingerprint line in:\n%s", tc.name, isa, out)
			}
			if m[1] != tc.want {
				t.Errorf("%s, -kernels=%s: final weight fingerprint %s, want %s", tc.name, isa, m[1], tc.want)
			}
		}
	}
}

// TestFreezeFlags: freeze flags that cannot mean what they say are usage
// errors (exit 2, like a flag parse failure) raised before any cutout is
// generated, and a warm start left trainable by -freeze-units 0 says so
// under its own flag.
func TestFreezeFlags(t *testing.T) {
	donor := donorFile(t)
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // in stderr when the run fails, in stdout when it succeeds
	}{
		{"-no-freeze without -init-from", []string{"-no-freeze"}, 2, "-no-freeze needs -init-from"},
		{"-freeze-units without -init-from", []string{"-freeze-units", "1"}, 2, "-freeze-units needs -init-from"},
		{"-freeze-units above -units", []string{"-init-from", donor, "-freeze-units", "4"}, 2, "-freeze-units 4 is out of range"},
		{"-freeze-units below -1", []string{"-init-from", donor, "-freeze-units", "-2"}, 2, "-freeze-units -2 is out of range"},
		{"-no-freeze with -freeze-units", []string{"-init-from", donor, "-no-freeze", "-freeze-units", "1"}, 2, "exclude each other"},
		{"-freeze-units 0", []string{"-init-from", donor, "-freeze-units", "0"}, 0, "backbone left trainable (-freeze-units 0): warm start only"},
		{"-freeze-units at -units", []string{"-init-from", donor, "-freeze-units", "3"}, 0, "frozen backbone: conv1, conv2, conv3 —"},
	} {
		out, stderr, code := astrotrain(t, append(append([]string{}, smoke...), tc.args...)...)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, stderr)
			continue
		}
		if code != 0 {
			if !strings.Contains(stderr, tc.want) || out != "" {
				t.Errorf("%s: stderr %q, want %q and no output; stdout %q", tc.name, stderr, tc.want, out)
			}
			continue
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: stdout lacks %q:\n%s", tc.name, tc.want, out)
		}
	}
}
