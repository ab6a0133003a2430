package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cfd/internal/harness"
	"cfd/internal/manifest"
	"cfd/internal/workload"
)

// jobs is the sweep worker count of every pass: the 2-CPU host the
// committed numbers come from.
const jobs = 2

// gridManifest is the many-short-specs campaign, relative to the root of
// the checkout.
const gridManifest = "examples/manifest/grid.json"

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name string
	// scale is the Runner scale before the seed's input-size offset.
	scale float64
	// resume makes set-up fill a store with one cold pass, and makes every
	// timed pass resume from that store instead of simulating.
	resume bool
	// setupReps is how many times one run repeats set-up; setup_s is the
	// median.
	setupReps int
	// specs loads and expands the workload's spec set, sorted by key, and
	// returns the manifest digest the journal's sweep_start carries.
	specs func(root string) ([]harness.RunSpec, string, error)
}

var workloads = []benchWorkload{
	{name: "paper-sweep", scale: 0.05, setupReps: 25, specs: paperSpecs},
	{name: "grid-cold", scale: gridScale, setupReps: 25, specs: gridSpecs},
	{name: "grid-resume", scale: gridScale, resume: true, setupReps: 3, specs: gridSpecs},
}

// gridScale puts the largest grid workload (soplexlike, DefaultN 200000)
// exactly at the harness's 256-element floor, so every grid spec runs at
// the minimum input size and the seed's offset lengthens soplexlike only.
const gridScale = 256.0 / 200_000

func workloadByName(name string) (*benchWorkload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// paperSpecs is the union of the fig18 and fig21b spec sets: base, CFD and
// CFD+ of every CFD workload on the Sandy Bridge baseline, and the
// window-scaling set.
func paperSpecs(string) ([]harness.RunSpec, string, error) {
	seen := map[string]harness.RunSpec{}
	for _, id := range []string{"fig18", "fig21b"} {
		e, ok := harness.ByID(id)
		if !ok {
			return nil, "", fmt.Errorf("experiment %s is not registered", id)
		}
		specs, err := e.Specs()
		if err != nil {
			return nil, "", fmt.Errorf("expand %s: %w", id, err)
		}
		for _, s := range specs {
			seen[s.Key()] = s
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]harness.RunSpec, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, "", nil
}

func gridSpecs(root string) ([]harness.RunSpec, string, error) {
	m, err := manifest.Load(filepath.Join(root, gridManifest))
	if err != nil {
		return nil, "", err
	}
	specs, err := harness.SpecsFromManifest(m)
	if err != nil {
		return nil, "", fmt.Errorf("expand %s: %w", gridManifest, err)
	}
	return specs, m.Digest(), nil
}

// seedInputs derives a run's inputs from its seed. The workload generators
// seed themselves from the workload name, so the seed instead lengthens
// every input by 0 to 2% and picks the order specs are submitted in.
func seedInputs(seed int64, scale float64, specs []harness.RunSpec) (float64, []harness.RunSpec) {
	scale *= 1 + float64(uint64(seed)%21)/1000
	order := append([]harness.RunSpec(nil), specs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, k int) {
		order[i], order[k] = order[k], order[i]
	})
	return scale, order
}

// setup is what one run prepares before its timed phase.
type setup struct {
	scale  float64
	specs  []harness.RunSpec // in submission order
	digest string
	// expand is the manifest load-and-expand time of the set-up.
	expand time.Duration
	// storeDir and cold are set for resume workloads: the store the cold
	// pass filled, and that pass's result digests aligned with specs.
	storeDir string
	cold     []digest
}

// prepare runs set-up once: workload registration lookup, manifest load
// and expand, the seed's inputs and, for a resume workload, one cold pass
// that fills a fresh store.
func prepare(ctx context.Context, w *benchWorkload, root, work string, seed int64, rep int) (*setup, error) {
	if len(workload.All()) == 0 {
		return nil, fmt.Errorf("no workloads registered")
	}
	t0 := time.Now()
	specs, digest, err := w.specs(root)
	if err != nil {
		return nil, err
	}
	su := &setup{digest: digest, expand: time.Since(t0)}
	su.scale, su.specs = seedInputs(seed, w.scale, specs)
	if !w.resume {
		return su, nil
	}
	su.storeDir = filepath.Join(work, fmt.Sprintf("resume-store-%d", rep))
	if err := os.RemoveAll(su.storeDir); err != nil {
		return nil, err
	}
	p, err := runPass(ctx, su, filepath.Join(work, "setup"))
	if err != nil {
		return nil, fmt.Errorf("fill store: %w", err)
	}
	if p.failed > 0 {
		return nil, fmt.Errorf("fill store: %d specs failed", p.failed)
	}
	su.cold = p.digests
	return su, nil
}
