package ooo

import (
	"encoding/json"
	"reflect"
	"testing"
)

// fillStats sets every exported field of Stats to a distinct nonzero
// value via reflection, so a field dropped anywhere in a dump/reimport
// cycle cannot hide behind a zero.
func fillStats(t *testing.T) *Stats {
	t.Helper()
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	next := uint64(1)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(next)
			next++
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(next)
				next++
			}
		case reflect.Struct:
			// Embedded aggregates (stats.Histogram): fill their scalar and
			// array subfields the same way.
			for j := 0; j < f.NumField(); j++ {
				sub := f.Field(j)
				switch sub.Kind() {
				case reflect.Uint64:
					sub.SetUint(next)
					next++
				case reflect.Array:
					for k := 0; k < sub.Len(); k++ {
						sub.Index(k).SetUint(next)
						next++
					}
				default:
					t.Fatalf("Stats.%s.%s has unhandled kind %v: extend fillStats",
						v.Type().Field(i).Name, f.Type().Field(j).Name, sub.Kind())
				}
			}
		default:
			t.Fatalf("Stats.%s has unhandled kind %v: extend fillStats and the dump surface",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return &s
}

// TestStatsJSONRoundTrip: every exported Stats field must survive a
// JSON dump and reimport bit-for-bit, and must appear as a key in the
// marshaled object. The JSON form is the output that carries Stats (a
// manifest, the `stats` field of /v1/run), so a counter tagged
// `json:"-"` or otherwise left out of it fails here.
func TestStatsJSONRoundTrip(t *testing.T) {
	s := fillStats(t)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*s, back) {
		t.Errorf("Stats did not survive the JSON round trip:\n  out: %+v\n  in:  %+v", *s, back)
	}

	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatalf("unmarshal keys: %v", err)
	}
	typ := reflect.TypeOf(*s)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if _, ok := keys[f.Name]; !ok {
			t.Errorf("Stats.%s missing from the JSON dump", f.Name)
		}
	}
}
