package metrics

import (
	"reflect"
	"testing"
)

// exportedNumericFields enumerates the exported fields of Collector,
// failing the test if a field of an unexpected type sneaks in (every
// exported field must be int64 or time.Duration so Add/Reset and the
// trace exporters can handle it uniformly).
func exportedNumericFields(t *testing.T) []reflect.StructField {
	t.Helper()
	typ := reflect.TypeOf(Collector{})
	var fields []reflect.StructField
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Collector field %s has unsupported type %s (exported fields must be int64-kind)", f.Name, f.Type)
		}
		fields = append(fields, f)
	}
	if len(fields) == 0 {
		t.Fatal("Collector has no exported fields")
	}
	return fields
}

// TestCollectorFieldCoverage sets every exported Collector field to a
// nonzero value, one at a time, and asserts that Add propagates it
// and Reset clears it. A counter added to the struct but forgotten in
// either of those methods fails here immediately
// — the same safety net the reflection-based exporters in
// internal/trace provide for the metrics export.
func TestCollectorFieldCoverage(t *testing.T) {
	for _, f := range exportedNumericFields(t) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			var src Collector
			reflect.ValueOf(&src).Elem().FieldByIndex(f.Index).SetInt(7)

			var dst Collector
			dst.Add(&src)
			got := reflect.ValueOf(&dst).Elem().FieldByIndex(f.Index).Int()
			if got == 0 {
				t.Errorf("Add does not propagate field %s", f.Name)
			}

			src.Reset()
			if v := reflect.ValueOf(&src).Elem().FieldByIndex(f.Index).Int(); v != 0 {
				t.Errorf("Reset leaves field %s = %d", f.Name, v)
			}
		})
	}
}

// TestCollectorAddAccumulates double-checks Add's semantics on a fully
// populated collector: every summable field doubles, and the peak
// field takes the maximum.
func TestCollectorAddAccumulates(t *testing.T) {
	fields := exportedNumericFields(t)
	var a Collector
	av := reflect.ValueOf(&a).Elem()
	for i, f := range fields {
		av.FieldByIndex(f.Index).SetInt(int64(i + 1))
	}
	b := a // copy
	a.Add(&b)
	for i, f := range fields {
		want := int64(2 * (i + 1))
		if f.Name == "MainQueuePeak" {
			want = int64(i + 1) // max, not sum
		}
		if got := av.FieldByIndex(f.Index).Int(); got != want {
			t.Errorf("after Add, field %s = %d, want %d", f.Name, got, want)
		}
	}
}

// TestBufferAccess exercises the buffer attribution counters directly.
func TestBufferAccess(t *testing.T) {
	var c Collector
	c.BufferAccess(true, 0)
	c.BufferAccess(false, 3)
	c.BufferAccess(false, 0)
	if c.BufferHits != 1 || c.BufferMisses != 2 || c.BufferEvictions != 3 {
		t.Fatalf("BufferAccess counters = %d/%d/%d, want 1/2/3",
			c.BufferHits, c.BufferMisses, c.BufferEvictions)
	}
	if got, want := c.BufferHitRatio(), 1.0/3.0; got != want {
		t.Fatalf("BufferHitRatio = %v, want %v", got, want)
	}
	var zero Collector
	if zero.BufferHitRatio() != 0 {
		t.Fatal("BufferHitRatio of zero collector must be 0")
	}
	var nilC *Collector
	nilC.BufferAccess(true, 1) // must not panic
}
