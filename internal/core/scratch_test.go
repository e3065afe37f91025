package core

import (
	"reflect"
	"testing"
	"unsafe"

	"clockroute/internal/candidate"
)

// TestScratchMemoryHoldsNoPointers pins that the memory a Scratch fills in
// bulk is memory the garbage collector never scans: the arena's slabs, the
// Pareto stores' pools, both heaps' buckets and tie runs, and the
// next-wave buffer. Candidates link by arena Ref, so none of their element
// types may hold a pointer, slice, map, string, interface, func or chan. The
// types are read off Scratch by reflection, so a field that goes back to a
// pointer type fails here rather than at compile time.
func TestScratchMemoryHoldsNoPointers(t *testing.T) {
	if n := unsafe.Sizeof(candidate.Candidate{}); n != 48 {
		t.Errorf("candidate.Candidate is %d bytes, want 48", n)
	}
	sc := reflect.TypeOf(Scratch{})
	store := field(t, sc, "stores").Elem().Elem() // [2]*Store
	heap := field(t, sc, "Q")
	bulk := []struct {
		what string
		typ  reflect.Type
	}{
		// []*[arenaBlock]Candidate: each slab is one allocation.
		{"arena slab", field(t, field(t, sc, "Arena"), "blocks").Elem().Elem()},
		{"store keys", field(t, store, "keys").Elem()},
		{"store cands", field(t, store, "cands").Elem()},
		{"store slack", field(t, store, "slack").Elem()},
		{"heap bucket item", field(t, heap, "buckets").Elem().Elem()},
		{"heap tie-run item", field(t, heap, "run").Elem()},
		{"GALS heap tie-run item", field(t, field(t, sc, "QStar"), "run").Elem()},
		{"Buf", field(t, sc, "Buf").Elem()},
	}
	for _, b := range bulk {
		if p := pointerIn(b.typ); p != "" {
			t.Errorf("%s element %v holds %s: the collector scans it", b.what, b.typ, p)
		}
	}
}

// field returns the type of struct typ's field name.
func field(t *testing.T, typ reflect.Type, name string) reflect.Type {
	t.Helper()
	if typ.Kind() != reflect.Struct {
		t.Fatalf("%v is not a struct", typ)
	}
	f, ok := typ.FieldByName(name)
	if !ok {
		t.Fatalf("%v has no field %s", typ, name)
	}
	return f.Type
}

// pointerIn names the first kind in typ that the collector must scan, or
// returns "" when typ holds only scalars.
func pointerIn(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return typ.Kind().String()
	case reflect.Array:
		return pointerIn(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerIn(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + ": " + p
			}
		}
	}
	return ""
}
