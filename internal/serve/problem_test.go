package serve

import (
	"strings"
	"testing"

	"deep15pf/internal/astro"
)

// TestRegistryModelsAndProblems pins the zoo inventory: every stock
// architecture is listed, sorted, and carries its workload label.
func TestRegistryModelsAndProblems(t *testing.T) {
	r := DefaultRegistry()
	models := r.Models()
	want := map[string]string{
		"astro-paper": "astro", "astro-small": "astro",
		"climate-paper": "climate", "climate-small": "climate",
		"hep-paper": "hep", "hep-small": "hep",
	}
	if len(models) != len(want) {
		t.Fatalf("Models() returned %d entries, want %d: %v", len(models), len(want), models)
	}
	for i, m := range models {
		if i > 0 && models[i-1].Arch >= m.Arch {
			t.Fatalf("Models() not sorted: %q before %q", models[i-1].Arch, m.Arch)
		}
		if want[m.Arch] != m.Problem {
			t.Fatalf("arch %q labelled problem %q, want %q", m.Arch, m.Problem, want[m.Arch])
		}
	}
	if p := r.ProblemOf("astro-small"); p != "astro" {
		t.Fatalf("ProblemOf(astro-small) = %q", p)
	}
	if p := r.ProblemOf("no-such-arch"); p != "" {
		t.Fatalf("ProblemOf(unknown) = %q, want empty", p)
	}
}

// TestRegistryCheckManifest is the satellite-1 contract: a checkpoint whose
// manifest names a different workload than the architecture's registration
// is refused with a clear error; empty labels (pre-PR-10 stores, unlabelled
// registrations) stay permissive.
func TestRegistryCheckManifest(t *testing.T) {
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	RegisterAstro(r, "atiny", astro.ModelConfig{Name: "atiny", ImageSize: 8, Filters: 4, ConvUnits: 2, Classes: 3})
	r.RegisterArch("plain", func(prec Precision) Model { return nil })

	cases := []struct {
		name                  string
		arch, mArch, mProblem string
		wantErr               string
	}{
		{"matching problem", "tiny", "tiny", "hep", ""},
		{"empty manifest problem (old store)", "tiny", "tiny", "", ""},
		{"empty manifest arch", "tiny", "", "hep", ""},
		{"unlabelled registration", "plain", "plain", "climate", ""},
		{"cross-workload model", "tiny", "tiny", "astro", "cross-workload"},
		{"astro arch fed a hep checkpoint", "atiny", "atiny", "hep", "cross-workload"},
		{"arch mismatch", "tiny", "other", "hep", `arch "other"`},
	}
	for _, tc := range cases {
		err := r.CheckManifest(tc.arch, tc.mArch, tc.mProblem)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
