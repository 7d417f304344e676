// Package niltest checks the nil-receiver contract of the optional
// providers (a nil *trace.Tracer, *obsrv.Registry, *obsrv.Query,
// *obsrv.ServingMetrics or *metrics.Collector is a valid "off" value
// whose every method is a no-op) by enumeration, so a method added
// later is covered without anyone listing it.
package niltest

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

var writerType = reflect.TypeOf((*io.Writer)(nil)).Elem()

// CallAll calls every exported method of the typed nil pointer p with
// zero-valued arguments — a *bytes.Buffer where an io.Writer is asked
// for, nothing for a variadic tail — and reports each one that panics.
func CallAll(t testing.TB, p any) {
	t.Helper()
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || !v.IsNil() {
		t.Fatalf("niltest.CallAll(%T): want a typed nil pointer", p)
	}
	for i := 0; i < v.NumMethod(); i++ {
		name, mt := v.Type().Method(i).Name, v.Method(i).Type()
		fixed := mt.NumIn()
		if mt.IsVariadic() {
			fixed--
		}
		args := make([]reflect.Value, fixed)
		for j := range args {
			if mt.In(j) == writerType {
				args[j] = reflect.ValueOf(new(bytes.Buffer))
			} else {
				args[j] = reflect.Zero(mt.In(j))
			}
		}
		if r := recovered(func() { v.Method(i).Call(args) }); r != nil {
			t.Errorf("(%T)(nil).%s panics: %v", p, name, r)
		}
	}
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}
