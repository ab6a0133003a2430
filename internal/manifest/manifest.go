// Package manifest defines the declarative experiment-manifest layer: a
// schema-versioned JSON format (cfd-manifest v1) declaring a base core
// configuration plus variant expressions — workload selectors, transform
// variant sets, and typed config-mutation sets — whose cross-product
// expands deterministically into the harness's run specs.
//
// A manifest is the single source of spec enumeration: the harness's
// registered experiments each embed one (their spec sets are pinned
// byte-for-byte against the legacy hand-written enumerations by
// testdata/specsets), and cfdbench -manifest runs a standalone manifest
// file as a sweep. Expansion is a pure function of the manifest and the
// workload registry: the result is sorted by spec key and duplicate-free,
// so it is byte-identical across processes and -jobs settings.
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cfd/internal/config"
	"cfd/internal/workload"
)

// Schema identifies the manifest document family; Version its revision.
// Version bumps only on incompatible changes; adding optional fields is
// compatible and does not bump it.
const (
	Schema  = "cfd-manifest"
	Version = 1
)

// Manifest declares one campaign: a base configuration preset and a list
// of sweeps whose expansions union into a single sorted, duplicate-free
// spec set.
type Manifest struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Name labels the campaign in tool output and the results export.
	Name string `json:"name,omitempty"`
	// Base names the configuration preset every config-mutation set is
	// applied to. Empty means "sandybridge" (the paper's baseline core).
	Base   string  `json:"base,omitempty"`
	Sweeps []Sweep `json:"sweeps"`
}

// Sweep is one cross-product: workloads × variants × configs. Configs and
// ConfigAxes are mutually exclusive; with neither, the sweep runs on the
// unmodified base preset.
type Sweep struct {
	Workloads Selector      `json:"workloads"`
	Variants  []VariantExpr `json:"variants"`
	// Configs lists explicit config-mutation sets, one expanded config per
	// entry. An empty mutation set ({}) is the base preset itself.
	Configs []ConfigSet `json:"configs,omitempty"`
	// ConfigAxes declares the configs as a cross-product of axes: one
	// mutation set is drawn from each axis and the sets are merged (axes
	// must not mutate the same field path). Three axes of 5, 3, and 2 sets
	// expand to 30 configs.
	ConfigAxes [][]ConfigSet `json:"configAxes,omitempty"`
}

// Selector picks workloads from the registry. Criteria are AND-combined;
// at least one must be set. Names are validated against the registry —
// an unknown name is an error, not an empty selection.
type Selector struct {
	// All selects every registered workload.
	All bool `json:"all,omitempty"`
	// Names selects workloads by exact name.
	Names []string `json:"names,omitempty"`
	// Class filters by branch classification: "separable" keeps the
	// CFD-applicable classes; any other value must equal a class name
	// exactly (e.g. "separable-loop").
	Class string `json:"class,omitempty"`
	// HasVariant keeps only workloads implementing the named variant.
	HasVariant string `json:"hasVariant,omitempty"`
}

// VariantExpr names the program variant (and run-mode flags) one spec
// runs. A workload that does not implement the requested variant is
// skipped — selectors describe sets, and the paper's sweeps run "every
// variant the workload implements" — but a sweep whose whole expansion is
// empty is an error.
type VariantExpr struct {
	// Variant is the transform name ("base", "cfd", "cfd+", ...).
	Variant string `json:"variant,omitempty"`
	// AnyOf, when set instead of Variant, picks the first variant in the
	// list the workload implements (e.g. ["cfd+", "cfd"] = the most
	// complete CFD(BQ) variant).
	AnyOf []string `json:"anyOf,omitempty"`

	// Run-mode flags, copied into each expanded Spec.
	PerfectAll  bool   `json:"perfectAll,omitempty"`
	PerfectCFD  bool   `json:"perfectCFD,omitempty"`
	SampleMSHR  bool   `json:"sampleMSHR,omitempty"`
	SampleEvery uint64 `json:"sampleEvery,omitempty"`
}

// ConfigSet is one typed config-mutation set: field paths into
// config.Core (e.g. "Predictor", "BQSize", "Cache.L1.SizeKB") mapped to
// the values to set. Enum fields accept their string forms ("gshare",
// "stall"). Unknown paths and type mismatches are hard errors.
type ConfigSet struct {
	Set map[string]any `json:"set,omitempty"`
}

// knownVariants pins the accepted variant names, so a manifest typo is a
// validation error instead of a silently empty expansion.
var knownVariants = map[string]bool{
	string(workload.Base):    true,
	string(workload.CFD):     true,
	string(workload.CFDPlus): true,
	string(workload.DFD):     true,
	string(workload.CFDDFD):  true,
	string(workload.CFDTQ):   true,
	string(workload.CFDBQ):   true,
	string(workload.CFDBQTQ): true,
}

// presets maps Base names to configuration constructors.
var presets = map[string]func() config.Core{
	"":            config.SandyBridge,
	"sandybridge": config.SandyBridge,
}

// New returns an empty schema-stamped manifest with the given name.
func New(name string, sweeps ...Sweep) *Manifest {
	return &Manifest{Schema: Schema, Version: Version, Name: name, Sweeps: sweeps}
}

// Parse decodes a manifest, rejecting unknown fields (a typoed key must
// not silently drop an axis) and validating the result.
func Parse(r io.Reader) (*Manifest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: decode: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Load reads and validates a manifest file.
func Load(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Validate checks the manifest's structure. Mutation paths and values are
// validated during Expand (they need the base config to resolve against).
func (m *Manifest) Validate() error {
	if m.Schema != Schema {
		return fmt.Errorf("manifest: schema %q, want %q", m.Schema, Schema)
	}
	if m.Version != Version {
		return fmt.Errorf("manifest: version %d, want %d", m.Version, Version)
	}
	if _, ok := presets[m.Base]; !ok {
		return fmt.Errorf("manifest %s: unknown base preset %q", m.Name, m.Base)
	}
	if len(m.Sweeps) == 0 {
		return fmt.Errorf("manifest %s: no sweeps", m.Name)
	}
	for i, sw := range m.Sweeps {
		if err := sw.validate(); err != nil {
			return fmt.Errorf("manifest %s: sweep %d: %w", m.Name, i, err)
		}
	}
	return nil
}

func (sw *Sweep) validate() error {
	sel := sw.Workloads
	if !sel.All && len(sel.Names) == 0 && sel.Class == "" && sel.HasVariant == "" {
		return fmt.Errorf("empty workload selector")
	}
	if sel.HasVariant != "" && !knownVariants[sel.HasVariant] {
		return fmt.Errorf("selector: unknown variant %q", sel.HasVariant)
	}
	if len(sw.Variants) == 0 {
		return fmt.Errorf("no variant expressions")
	}
	for j, ve := range sw.Variants {
		switch {
		case ve.Variant != "" && len(ve.AnyOf) > 0:
			return fmt.Errorf("variant %d: variant and anyOf are mutually exclusive", j)
		case ve.Variant == "" && len(ve.AnyOf) == 0:
			return fmt.Errorf("variant %d: neither variant nor anyOf set", j)
		case ve.Variant != "" && !knownVariants[ve.Variant]:
			return fmt.Errorf("variant %d: unknown variant %q", j, ve.Variant)
		}
		for _, v := range ve.AnyOf {
			if !knownVariants[v] {
				return fmt.Errorf("variant %d: unknown variant %q in anyOf", j, v)
			}
		}
	}
	if len(sw.Configs) > 0 && len(sw.ConfigAxes) > 0 {
		return fmt.Errorf("configs and configAxes are mutually exclusive")
	}
	return nil
}

// Digest is the manifest's deterministic content identity: the hex SHA-256
// of its canonical JSON encoding (encoding/json sorts map keys, so two
// equal manifests always digest identically). The journal's sweep_start
// and the results export carry it, tying artifacts back to the exact
// declaration that produced them.
func (m *Manifest) Digest() string {
	data, err := json.Marshal(m)
	if err != nil {
		// Manifests are plain data; a marshal failure is a programming bug.
		panic("manifest: digest: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Spec identifies one simulation run; harness.RunSpec is this type. Key is
// the run's deterministic cache and store identity.
type Spec struct {
	Workload   string
	Variant    workload.Variant
	Config     config.Core
	PerfectAll bool // perfect prediction for all conditional branches
	PerfectCFD bool // perfect prediction for the separable branches only
	SampleMSHR bool // record the L1 MSHR occupancy histogram (Fig 25a)
	// SampleEvery, when nonzero, attaches an interval sampler to the run:
	// the result carries an IPC/stall/occupancy time series sampled every
	// SampleEvery cycles plus full-run queue-occupancy histograms. It is
	// part of the key: a sampled and an unsampled run of the same
	// configuration are distinct simulations.
	SampleEvery uint64
}

// Key returns the spec's deterministic identity: a human-readable prefix
// naming the run plus a trailing digest over the complete Config struct,
// so two specs differing in any configuration detail — even one the
// config Name does not encode — can never alias to one cache or store
// entry.
func (s Spec) Key() string {
	return fmt.Sprintf("%s|%s|%s|%v|%v|%v|%v|%d|cfg:%s", s.Workload, s.Variant,
		s.Config.Name, s.Config.BQMissPolicy, s.PerfectAll, s.PerfectCFD, s.SampleMSHR,
		s.SampleEvery, ConfigDigest(s.Config))
}

// ConfigDigest hashes the full Core configuration. The struct is plain
// exported data (ints, bools, strings, nested value structs), so its JSON
// encoding is canonical and the digest is deterministic across processes.
func ConfigDigest(cfg config.Core) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		// Core is marshalable by construction; a failure here means a
		// future field broke that, which must not silently alias specs.
		panic("manifest: config digest: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
