package vocab

import (
	"strings"
	"testing"

	"metamess/internal/units"
)

func TestStandardVocabularyConsistency(t *testing.T) {
	vars := Standard()
	if len(vars) < 15 {
		t.Fatalf("vocabulary = %d entries, want a rich list", len(vars))
	}
	reg := units.NewRegistry()
	seen := map[string]bool{}
	for _, v := range vars {
		if v.Name == "" || v.Base == "" {
			t.Errorf("entry %+v missing name or base", v)
		}
		if seen[v.Name] {
			t.Errorf("duplicate canonical name %q", v.Name)
		}
		seen[v.Name] = true
		if _, ok := reg.Lookup(v.Unit); !ok {
			t.Errorf("%s: unit %q not in registry", v.Name, v.Unit)
		}
		if v.Typical.Min > v.Typical.Max {
			t.Errorf("%s: inverted typical range", v.Name)
		}
		for _, s := range v.Synonyms {
			if strings.EqualFold(s, v.Name) {
				t.Errorf("%s: synonym equals canonical name", v.Name)
			}
		}
	}
	// The poster's examples must be present.
	for _, want := range []string{"water_temperature", "air_temperature", "fluores375", "fluores400"} {
		if !seen[want] {
			t.Errorf("canonical vocabulary missing %q", want)
		}
	}
}

func TestMultiContextBasesExist(t *testing.T) {
	// Table 1's source-context row needs a base in 2+ contexts.
	contexts := map[string]map[string]bool{}
	for _, v := range Standard() {
		if v.Context == "" {
			continue
		}
		if contexts[v.Base] == nil {
			contexts[v.Base] = map[string]bool{}
		}
		contexts[v.Base][v.Context] = true
	}
	multi := 0
	for _, ctxs := range contexts {
		if len(ctxs) >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no base concept occurs in multiple contexts")
	}
	if len(contexts["temperature"]) < 2 {
		t.Errorf("temperature contexts = %v, want air+water", contexts["temperature"])
	}
}

func TestHelpers(t *testing.T) {
	byName := ByName(Standard())
	if byName["salinity"].Unit != "PSU" {
		t.Errorf("ByName lookup = %+v", byName["salinity"])
	}
	if len(ExcessivePrefixes()) == 0 || len(ExcessiveSuffixes()) == 0 {
		t.Error("excessive markers empty")
	}
	amb := AmbiguousTerms()
	if len(amb["temp"]) != 2 {
		t.Errorf("ambiguous temp = %v", amb["temp"])
	}
}
