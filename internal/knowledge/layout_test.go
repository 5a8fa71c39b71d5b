package knowledge

import (
	"testing"
	"unsafe"
)

// TestRecordFootprint pins the two record layouts: a view holds one
// process record per process and one link record per link slot, so a
// field added to either is paid Π or Λ times over in every view.
func TestRecordFootprint(t *testing.T) {
	if got := unsafe.Sizeof(procState{}); got > 104 {
		t.Errorf("a process record is %d bytes, want <= 104", got)
	}
	if got := unsafe.Sizeof(linkState{}); got > 104 {
		t.Errorf("a link record is %d bytes, want <= 104", got)
	}
	if got := unsafe.Sizeof(wireSig{}); got > 32 {
		t.Errorf("a wire signature is %d bytes, want <= 32", got)
	}
	if got := unsafe.Sizeof([chunkLen]linkState{}); got > 1792 {
		t.Errorf("a link chunk is %d bytes, want <= 1792 (its size class)", got)
	}
}
