package harness

import (
	"fmt"
	"reflect"
	"testing"

	"cfd/internal/config"
	"cfd/internal/workload"
)

// TestRunSpecKeyCoversEveryField pins the cache/store identity contract:
// every field of RunSpec — recursively, down to every leaf of the embedded
// Core configuration — must change Key(). A future field that is added to
// RunSpec (or to config.Core, or to any struct it embeds) but forgotten by
// Key() would silently alias distinct specs to one cache/store entry and
// serve wrong results; this test makes that impossible to miss, and fails
// loudly on field kinds the mutator does not yet know how to perturb.
func TestRunSpecKeyCoversEveryField(t *testing.T) {
	base := RunSpec{
		Workload: "soplexlike",
		Variant:  workload.Base,
		Config:   config.SandyBridge(),
	}
	baseKey := base.Key()

	spec := base
	v := reflect.ValueOf(&spec).Elem()
	leaves := 0
	mutateEachLeaf(t, v, "RunSpec", func(path string) {
		leaves++
		if got := spec.Key(); got == baseKey {
			t.Errorf("mutating %s does not change Key(): distinct specs would alias", path)
		}
	})
	if spec.Key() != baseKey {
		t.Fatal("mutator failed to restore the spec; the walk is unsound")
	}
	// Sanity floor: RunSpec's own 7 fields plus the nested configuration
	// must contribute dozens of leaves; a collapsed walk means the test
	// went vacuous.
	if leaves < 30 {
		t.Fatalf("walked only %d leaf fields; expected the full nested config", leaves)
	}
}

// mutateEachLeaf walks every leaf field of v, and for each one: perturbs
// it, calls check with the field's path, and restores the original value.
// Unexported or unsupported fields fail the test — they could not
// participate in the key's config digest, so they must not exist in
// key-relevant structs without extending Key() and this mutator together.
func mutateEachLeaf(t *testing.T, v reflect.Value, path string, check func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		st := v.Type()
		for i := 0; i < v.NumField(); i++ {
			f := st.Field(i)
			if f.PkgPath != "" {
				t.Fatalf("%s.%s is unexported: invisible to the key's config digest; export it or move it out of the spec", path, f.Name)
				continue
			}
			mutateEachLeaf(t, v.Field(i), path+"."+f.Name, check)
		}
	case reflect.String:
		old := v.String()
		v.SetString(old + "~mutated")
		check(path)
		v.SetString(old)
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		check(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		check(path)
		v.SetUint(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 0.5)
		check(path)
		v.SetFloat(old)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			mutateEachLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	default:
		t.Fatalf("%s has kind %s: the key mutator cannot perturb it — extend mutateEachLeaf and make sure Key() covers it", path, v.Kind())
	}
}
