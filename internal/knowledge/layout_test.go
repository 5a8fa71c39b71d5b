package knowledge

import (
	"reflect"
	"testing"
	"unsafe"

	"adaptivecast/internal/bayes"
)

// TestRecordFootprint pins the two record layouts: a view holds one
// process record per process and one link record per link slot, so a
// field added to either is paid Π or Λ times over in every view. Neither
// record, nor the estimator and estimator state they are built from,
// holds a pointer, which keeps the record arrays out of GC scanning.
func TestRecordFootprint(t *testing.T) {
	if got := unsafe.Sizeof(procState{}); got > 88 {
		t.Errorf("a process record is %d bytes, want <= 88", got)
	}
	if got := unsafe.Sizeof(linkState{}); got > 80 {
		t.Errorf("a link record is %d bytes, want <= 80", got)
	}
	if got := unsafe.Sizeof(wireSig{}); got > 24 {
		t.Errorf("a wire signature is %d bytes, want <= 24", got)
	}
	if got := unsafe.Sizeof([chunkLen]linkState{}); got > 1280 {
		t.Errorf("a link chunk is %d bytes, want <= 1280 (its size class)", got)
	}
	for _, v := range []any{procState{}, linkState{}, bayes.Estimator{}, bayes.State{}} {
		if typ := reflect.TypeOf(v); hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}
