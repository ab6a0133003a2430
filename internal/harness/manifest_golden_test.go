package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The testdata/specsets goldens were captured from the hand-written
// enumeration loops the embedded manifests replaced: each file is the
// sorted spec-key list one experiment's legacy Prefetch swept. These
// tests are the refactor's safety net — the manifests must reproduce
// those sets byte for byte, forever.

// nonManifestExps pins the experiments that legitimately carry no
// manifest: classification studies, static tables, and custom-program
// ablations that do not sweep RunSpecs.
var nonManifestExps = map[string]bool{
	"fig6":            true,
	"table1":          true,
	"table2":          true,
	"fig17":           true,
	"table5":          true,
	"table6":          true,
	"ablation-xform":  true,
	"ablation-ifconv": true,
}

// TestManifestCoverage: every experiment either embeds a manifest or is
// explicitly pinned as manifest-free — a new experiment cannot silently
// opt out of declarative enumeration.
func TestManifestCoverage(t *testing.T) {
	for _, e := range AllExperiments() {
		switch {
		case e.Manifest == nil && !nonManifestExps[e.ID]:
			t.Errorf("experiment %s has no manifest and is not in nonManifestExps", e.ID)
		case e.Manifest != nil && nonManifestExps[e.ID]:
			t.Errorf("experiment %s is pinned manifest-free but embeds a manifest", e.ID)
		}
	}
	for id := range nonManifestExps {
		if _, ok := ByID(id); !ok {
			t.Errorf("nonManifestExps pins unknown experiment %q", id)
		}
	}
}

// TestManifestSpecsMatchLegacyGoldens: each embedded manifest expands to
// exactly the spec-key set the legacy enumeration loops produced.
// Regenerate with UPDATE_SPECSETS=1 only for intentional changes to an
// experiment's sweep.
func TestManifestSpecsMatchLegacyGoldens(t *testing.T) {
	covered := map[string]bool{}
	for _, e := range AllExperiments() {
		if e.Manifest == nil {
			continue
		}
		covered[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			specs, err := e.Specs()
			if err != nil {
				t.Fatalf("Specs: %v", err)
			}
			var b strings.Builder
			for _, sp := range specs {
				b.WriteString(sp.Key())
				b.WriteByte('\n')
			}
			got := b.String()
			path := filepath.Join("testdata", "specsets", e.ID+".keys")
			if os.Getenv("UPDATE_SPECSETS") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing (run with UPDATE_SPECSETS=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("manifest expansion diverges from legacy golden %s\ngot %d specs, want %d\n%s",
					path, len(specs), strings.Count(string(want), "\n"),
					diffLines(got, string(want)))
			}
		})
	}
	// Every golden must belong to a live manifest experiment, so a renamed
	// experiment cannot leave a stale golden silently passing.
	ents, err := os.ReadDir(filepath.Join("testdata", "specsets"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		id := strings.TrimSuffix(ent.Name(), ".keys")
		if !covered[id] {
			t.Errorf("stale golden testdata/specsets/%s: no manifest experiment %q", ent.Name(), id)
		}
	}
}

// TestManifestExpansionDeterministic: double expansion of every embedded
// manifest is byte-identical — the property that makes spec-key lists
// valid goldens and store identities.
func TestManifestExpansionDeterministic(t *testing.T) {
	for _, e := range AllExperiments() {
		if e.Manifest == nil {
			continue
		}
		a, err := e.Specs()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b, err := e.Specs()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: expansion lengths differ: %d vs %d", e.ID, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: spec %d differs between expansions", e.ID, i)
			}
		}
		if dig1, dig2 := e.Manifest.Digest(), e.Manifest.Digest(); dig1 != dig2 {
			t.Errorf("%s: manifest digest not stable: %s vs %s", e.ID, dig1, dig2)
		}
	}
}

// diffLines renders the first few line-level differences between two
// sorted key lists.
func diffLines(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g == w {
			continue
		}
		fmt.Fprintf(&b, "  line %d:\n    got  %q\n    want %q\n", i+1, g, w)
		if n++; n >= 5 {
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}
