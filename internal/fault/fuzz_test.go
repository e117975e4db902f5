package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan: every spec either fails to parse or yields a non-empty
// plan that validates, carries only finite intensities and well-ordered
// windows, and survives a String/ParsePlan round trip unchanged.
//
//	go test ./internal/fault -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 15s
func FuzzParsePlan(f *testing.F) {
	for _, name := range PresetNames() {
		f.Add(name)
		f.Add(Presets()[name].String())
	}
	for _, spec := range []string{
		"",
		";",
		"slow:at=2s,dur=3s,factor=10;error:at=2s,dur=3s,rate=0.01",
		"gcstorm:at=1s,dur=2s,rate=0.05,stall=5ms",
		"error:at=0s,dur=1s,rate=NaN",
		"slow:at=0s,dur=1s,factor=NaN",
		"slow:at=0s,dur=1s,factor=+Inf",
		"iopscap:at=0s,dur=1s,rate=+Inf",
		"slow:at=2562047h,dur=2562047h,factor=2",
		"stall:at=1.5ns,dur=1ns",
		"error:at=0s,dur=1s,rate=0x1p-4",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if p.Empty() {
			t.Fatalf("ParsePlan(%q) accepted an empty plan", spec)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) returned a plan that does not validate: %v", spec, err)
		}
		for i, e := range p.Episodes {
			if !finite(e.Rate) || !finite(e.Factor) {
				t.Fatalf("ParsePlan(%q) episode %d has a non-finite value: %+v", spec, i, e)
			}
			if e.End() <= e.At {
				t.Fatalf("ParsePlan(%q) episode %d ends at %v, not after its start %v", spec, i, e.End(), e.At)
			}
		}
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip of %q changed the plan:\n got  %+v\n want %+v", spec, back, p)
		}
	})
}
