package sched

import (
	"testing"
	"unsafe"
)

// Boards keep every App they were given until they are collected, so a
// new field must fit the 320-byte allocation class the struct fills.
func TestAppFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(App{}); n > 320 {
		t.Fatalf("App is %d bytes, past the 320-byte size class", n)
	}
}
