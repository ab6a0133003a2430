package harness

import (
	"runtime/debug"
	"sync"

	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// buildKey identifies one program build by everything workload.Spec.Build
// consumes: the workload (by registration, so a re-registered name is a
// new workload), the variant and the resolved input size. An input added
// to Build joins this key.
type buildKey struct {
	spec    *workload.Spec
	variant workload.Variant
	n       int64
}

// masterKey identifies the initial memories of one workload at one size.
type masterKey struct {
	spec *workload.Spec
	n    int64
}

// built is one memoized build, filled exactly once. The program and the
// master memory are shared by every spec of the build and are never
// written: engines run on prog as is and on Clones of master.
type built struct {
	once   sync.Once
	prog   *prog.Program
	master *mem.Memory
	err    error
	// panicked is the RuntimePanic fault of a builder that panicked; every
	// spec of the build reports it.
	panicked *fault.Fault
}

// build returns the Runner's memoized build of variant v of s at size n,
// building it on first use. Concurrent callers of one key wait for a
// single build. Builds are deterministic, so errors and panics are
// memoized too.
func (r *Runner) build(s *workload.Spec, v workload.Variant, n int64) *built {
	k := buildKey{spec: s, variant: v, n: n}
	r.mu.Lock()
	if r.builds == nil {
		r.builds = make(map[buildKey]*built)
	}
	b := r.builds[k]
	if b == nil {
		b = &built{}
		r.builds[k] = b
	}
	r.mu.Unlock()
	b.once.Do(func() { r.fill(b, k) })
	return b
}

// fill runs the builder for k into b, containing a panic as the same
// RuntimePanic fault simulate's recover records for the engines.
func (r *Runner) fill(b *built, k buildKey) {
	defer func() {
		if v := recover(); v != nil {
			b.panicked = fault.FromPanic(v, debug.Stack(), fault.Snapshot{Engine: "harness"})
		}
	}()
	p, m, err := k.spec.Build(k.variant, k.n)
	if err != nil {
		b.err = err
		return
	}
	b.prog, b.master = p, r.master(masterKey{spec: k.spec, n: k.n}, m)
}

// master returns the memory the Runner holds for k with m's contents: an
// earlier build's memory when one is Equal to m, otherwise m itself, kept
// from now on. Every variant of a kernel-shaped workload starts from the
// same memory, so a workload at one size is usually held once; variants
// whose memories differ each keep their own.
func (r *Runner) master(k masterKey, m *mem.Memory) *mem.Memory {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, old := range r.masters[k] {
		if old.Equal(m) {
			return old
		}
	}
	if r.masters == nil {
		r.masters = make(map[masterKey][]*mem.Memory)
	}
	r.masters[k] = append(r.masters[k], m)
	return m
}
